#[test]
fn calls_alpha() {
    alpha::used_by_a_test();
}
