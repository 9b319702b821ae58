//! The ledger's pure parts: order statistics, span self-time, the JSON
//! writer/reader round trip, the comparison rule — and that the metric
//! tables in `harness.rs` and `BENCHMARK.json` say the same thing.

use impossible_ledger::compare::{classify, Class};
use impossible_ledger::control::{Control, REFERENCE_S};
use impossible_ledger::expected::{
    grid_peak_frontier, grid_states, grid_transitions, nonempty_necklaces, Expected,
};
use impossible_ledger::harness::{END_TO_END, PER_LAYER, WORKLOADS};
use impossible_ledger::json::{parse, Value};
use impossible_ledger::span::{self_ns, total_ns, Recorder, Span};
use impossible_ledger::stats::{median, quartiles, Summary};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), (2.75, 8.25));
    // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
    assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 4.0));
    // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: the exclusive
    // method extrapolates past two samples.
    assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
    assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
}

#[test]
fn summary_carries_extremes_count_and_spread() {
    let s = Summary::of(&[10.0, 12.0, 11.0, 9.0, 13.0, 10.5, 11.5, 9.5, 12.5]);
    assert_eq!((s.n, s.min, s.max, s.median), (9, 9.0, 13.0, 11.0));
    assert!((s.spread() - (s.q3 - s.q1) / 11.0).abs() < 1e-12);
}

fn span(id: u32, parent: Option<u32>, name: &str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: name.to_string(),
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let spans = vec![
        span(0, None, "op", 0, 100),
        span(1, Some(0), "a", 10, 40),
        span(2, Some(0), "b", 30, 60),  // overlaps `a` on 30..40
        span(3, Some(0), "c", 90, 120), // clipped to the parent's end
        span(4, Some(1), "grandchild", 15, 20), // not a direct child of `op`
    ];
    // Covered: 10..60 (50) and 90..100 (10).
    assert_eq!(self_ns(&spans, 0), 40);
    assert_eq!(self_ns(&spans, 1), 25);
    assert_eq!(self_ns(&spans, 4), 5);
    assert_eq!(total_ns(&spans, "a"), 30);
}

#[test]
fn recorder_nests_and_sums_by_name() {
    let mut rec = Recorder::new();
    let outer = rec.enter("outer");
    rec.time("leaf", || std::hint::black_box(1 + 1));
    rec.time("leaf", || std::hint::black_box(2 + 2));
    rec.exit(outer);
    let spans = rec.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    let leaves = total_ns(spans, "leaf");
    assert!(leaves <= spans[0].end_ns - spans[0].start_ns);
    assert_eq!(
        self_ns(spans, 0) + leaves,
        spans[0].end_ns - spans[0].start_ns
    );
}

#[test]
fn json_round_trips_what_the_ledger_writes() {
    let doc = Value::obj()
        .with("name", "grid \"w1\"\n")
        .with("seed", 18_446_744_073_709u64)
        .with("time", 0.807780696)
        .with("tiny", 3.8962e-05)
        .with("ok", true)
        .with("none", Value::Null)
        .with("samples", &[1.5, 2.25, -3.0][..])
        .with("nested", Value::obj().with("unit", "1/s"));
    let text = doc.to_string();
    assert_eq!(parse(&text).expect("own output parses"), doc);
    // Every digit of a timing survives.
    assert!(text.contains("0.807780696"), "{text}");
    // Non-finite numbers never reach a file as a bare token.
    assert_eq!(Value::obj().with("x", f64::NAN).to_string(), "{\"x\":null}");
}

#[test]
fn json_reader_takes_pretty_printed_input_and_rejects_junk() {
    let v = parse("{\n  \"a\": [1, 2.5e1, {\"b\": \"\\u00e9\\t\"}],\n  \"c\": false\n}\n")
        .expect("valid");
    assert_eq!(
        v.get("a").and_then(|a| a.as_array()).map(|a| a.len()),
        Some(3)
    );
    assert_eq!(
        v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
        Some(25.0)
    );
    assert_eq!(
        v.get("a").unwrap().as_array().unwrap()[2]
            .get("b")
            .unwrap()
            .as_str(),
        Some("é\t")
    );
    assert_eq!(v.get("c").and_then(Value::as_bool), Some(false));
    for bad in ["", "{", "[1,]", "{\"a\" 1}", "\"open", "{} x", "nul"] {
        assert!(parse(bad).is_err(), "{bad:?} must not parse");
    }
}

#[test]
fn compare_classifies_ok_regressed_and_unresolved() {
    let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
    // Within the bound.
    let same = classify(&steady, &[1.03, 1.04, 1.02, 1.03, 1.05], true, 0.10);
    assert_eq!(same.class, Class::Ok);
    assert!((same.worse_by - 0.03).abs() < 1e-9);
    // Worse by 20 % with tight runs: regressed.
    assert_eq!(
        classify(&steady, &[1.20, 1.21, 1.19, 1.20, 1.22], true, 0.10).class,
        Class::Regressed
    );
    // Better never regresses.
    assert_eq!(
        classify(&steady, &[0.5, 0.5, 0.5], true, 0.10).class,
        Class::Ok
    );
    // Higher-is-better flips the sign: a drop of 20 % is a regression.
    let rate = classify(&[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0], false, 0.10);
    assert_eq!(rate.class, Class::Regressed);
    assert!(rate.worse_by > 0.19);
    // Spread wider than the bound and overlapping ranges: unresolved,
    // whichever way the medians point.
    let noisy = [0.8, 1.0, 1.2, 0.7, 1.3];
    assert_eq!(
        classify(&noisy, &[0.9, 1.15, 1.4, 0.8, 1.2], true, 0.10).class,
        Class::Unresolved
    );
    // Wide spread, but every run of B beats every run of A: resolved.
    assert_eq!(
        classify(&noisy, &[0.3, 0.4, 0.5], true, 0.10).class,
        Class::Ok
    );
    // Wide spread and every run of B is worse than every run of A.
    assert_eq!(
        classify(&noisy, &[2.0, 2.5, 3.0], true, 0.10).class,
        Class::Regressed
    );
    // Single-sample sides (peak RSS) compare by value.
    assert_eq!(classify(&[100.0], &[104.0], true, 0.05).class, Class::Ok);
    assert_eq!(
        classify(&[100.0], &[106.0], true, 0.05).class,
        Class::Regressed
    );
}

#[test]
fn control_correction_cancels_a_slowdown_shared_with_the_control() {
    // A quiet operation, and the same one in a stretch where operation and
    // control both run 40 % slow, correct to the same seconds.
    let quiet = Control::correct(1.0, REFERENCE_S, REFERENCE_S);
    let slow = Control::correct(1.4, 1.4 * REFERENCE_S, 1.4 * REFERENCE_S);
    assert!((quiet - 1.0).abs() < 1e-12 && (slow - 1.0).abs() < 1e-12);
    // A slower engine on an unchanged machine shows in full.
    assert!((Control::correct(1.3, REFERENCE_S, REFERENCE_S) - 1.3).abs() < 1e-12);
    // The controls on either side of the operation count equally.
    let drift = Control::correct(1.2, REFERENCE_S, 1.4 * REFERENCE_S);
    assert!((drift - 1.0).abs() < 1e-12);
}

#[test]
fn closed_forms() {
    assert_eq!(grid_states(6, 9), 1_000_000);
    assert_eq!(grid_transitions(6, 9), 5_400_000);
    assert_eq!(grid_peak_frontier(6, 9), 55_252);
    assert_eq!((grid_states(3, 4), grid_transitions(3, 4)), (125, 300));
    assert_eq!(grid_peak_frontier(2, 2), 3);
    // 14 binary necklaces of length 6; 52 488 of length 20.
    assert_eq!(nonempty_necklaces(6), 13);
    assert_eq!(nonempty_necklaces(20), 52_487);
}

#[test]
fn expected_file_parses_and_covers_every_workload() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/expected.txt"))
        .expect("expected.txt");
    let e = Expected::parse(&text).expect("expected.txt parses");
    for w in WORKLOADS {
        for scale in ["full", "small"] {
            assert!(
                e.count(&format!("{w}/{scale}"), "states").is_ok(),
                "{w}/{scale} has no states"
            );
        }
    }
    assert_eq!(e.count("ring_quotient20/full", "evades.sccs"), Ok(19)); // pinned section merges in
    assert_eq!(e.job("ring 8 evades-free"), Ok((false, 35, 144)));
    assert!(e.job("ring 99 evades-free").is_err());
    assert!(Expected::parse("stray = 1").is_err());
}

#[test]
fn benchmark_json_names_the_same_metrics_and_workloads() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json");
    let bench = parse(&text).expect("BENCHMARK.json parses");
    let named = |key: &str| -> Vec<(String, String)> {
        bench
            .get(key)
            .and_then(Value::as_array)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(named("end_to_end"), own(END_TO_END));
    assert_eq!(named("per_layer"), own(PER_LAYER));
    // The benchmark driver's time limit fits four workloads at a run length
    // that is steady on a shared host; the ledger itself runs all eight.
    for (w, _) in named("workloads") {
        assert!(WORKLOADS.contains(&w.as_str()), "unknown workload {w}");
    }
}
