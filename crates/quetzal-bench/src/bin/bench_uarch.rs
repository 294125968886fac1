//! Simulator-throughput benchmark: emits the `BENCH_uarch.json`
//! perf-trajectory document on stdout (per-kernel simulated MIPS and
//! wall-clock over the Fig. 3 / Fig. 4 kernels, median of 15 samples,
//! plus the functional engine's host cost per instruction form) and the
//! human-readable tables on stderr. `scripts/ci.sh` redirects stdout to
//! `BENCH_uarch.json` at the repository root.
fn main() {
    let scale = quetzal_bench::scale_from_env();
    eprintln!("measuring simulator throughput at scale {scale} ...");
    let results = quetzal_bench::throughput::measure_fig_kernels(scale);
    eprint!("{}", quetzal_bench::throughput::summary_table(&results));
    let ops = quetzal_bench::throughput::measure_op_costs();
    eprint!("{}", quetzal_bench::throughput::op_cost_table(&ops));
    println!(
        "{}",
        quetzal_bench::throughput::to_json(&results, &ops, scale)
    );
}
