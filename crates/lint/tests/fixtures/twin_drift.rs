pub fn run(sys: &Sys, steps: usize) -> Report {
    run_traced(sys, steps, &mut NoopTracer)
}
pub fn run_traced(sys: &Sys, steps: usize, tr: &mut dyn Tracer) -> Report {
    unimplemented!()
}
pub fn orphan_traced(tr: &mut dyn Tracer) -> u32 {
    0
}
pub fn own_body(steps: usize) -> usize {
    steps + 1
}
pub fn own_body_traced(steps: usize, tr: &mut dyn Tracer) -> usize {
    steps + 1
}
pub fn more_work(x: u32) -> u32 {
    let r = more_work_traced(x, &mut NoopTracer);
    r + 1
}
pub fn more_work_traced(x: u32, tr: &mut dyn Tracer) -> u32 {
    x
}
// LINT-ALLOW: twin-drift -- fixture: intentionally waived orphan
pub fn waived_traced(tr: &mut dyn Tracer) -> u32 {
    0
}
impl Runner {
    pub fn run(&mut self, budget: [u8; 2]) -> Report {
        self.run_traced(
            budget,
            &mut NoopTracer,
        )
    }
    pub fn run_traced(&mut self, budget: [u8; 2], tr: &mut dyn Tracer) -> Report {
        unimplemented!()
    }
}
pub fn twice(x: u32) -> u32 {
    twice_traced(x, &mut NoopTracer) + twice_traced(x, &mut NoopTracer)
}
pub fn twice_traced(x: u32, tr: &mut dyn Tracer) -> u32 {
    x
}
trait Engine {
    fn step(&mut self, budget: [u8; 2]) -> Report;
    fn step_traced(&mut self, budget: [u8; 2], tr: &mut dyn Tracer) -> Report {
        self.step_traced(budget, &mut NoopTracer)
    }
}
macro_rules! make_traced {
    ($name_traced:ident) => { fn $name_traced(hook: fn(u32) -> u32) {} };
}
