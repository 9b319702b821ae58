fn main() {
    let started = std::time::Instant::now();
    std::process::exit(impossible_ledger::cli::main(started));
}
