//! Simulator-throughput trajectory (simulated MIPS).
//!
//! The paper's figures are regenerated by simulating millions of
//! dynamic instructions; how many of them the simulator retires per
//! host second — *simulated MIPS* — bounds every design-space sweep we
//! can afford. This module measures that quantity on the kernels behind
//! Fig. 3 and Fig. 4 (WFA / BiWFA / SS on the short-read Table II
//! datasets, baseline and hand-vectorised tiers) and renders the result
//! as the `BENCH_uarch.json` perf-trajectory artifact written by
//! `scripts/ci.sh`.
//!
//! Measurements are median-of-[`timing::SAMPLES`] wall-clock samples
//! (see [`timing::measure`]); simulated instruction and cycle counts
//! are exact and deterministic, so `sim_mips` is the only field that
//! varies between hosts.

use crate::timing::{self, sim_mips};
use crate::workloads::{run_algo_pairs_pooled, table2_workloads, Algo, Workload, SEED};
use quetzal::uarch::{Core, RunStats};
use quetzal::{BatchRunner, CoreConfig, ExecMode, MachineConfig, MachinePool};
use quetzal_algos::Tier;
use quetzal_genomics::dataset::DatasetSpec;
use quetzal_isa::{
    BranchCond, ElemSize, MemSize, ProgramBuilder, QBufSel, QzOp, RedOp, SAluOp, VAluOp, P0, P1,
    P2, V0, V1, V2, V3, V4, X0, X1, X10, X2, X20, X21, X4, X5, X6,
};
use std::time::Instant;

/// Throughput of one simulated kernel (one algorithm / dataset / tier
/// combination run over every pair of its workload).
#[derive(Debug, Clone)]
pub struct KernelThroughput {
    /// Kernel label, e.g. `wfa/100bp_1/vec`.
    pub kernel: String,
    /// Execution engine the measurement drove: `"cycle"` (the
    /// out-of-order timing model) or `"functional"` (the compiled
    /// functional tier).
    pub engine: &'static str,
    /// Simulated instructions retired by one run over the workload.
    pub sim_instructions: u64,
    /// Simulated cycles of one run over the workload (0 on the
    /// functional engine — it has no clock).
    pub sim_cycles: u64,
    /// Median wall-clock nanoseconds per run.
    pub median_wall_ns: f64,
    /// Simulated MIPS at the median wall-clock.
    pub sim_mips: f64,
}

/// Bases kept of each long read in the trajectory's long-read kernel.
/// Full 10Kbp reads run the same code for orders of magnitude more
/// dynamic instructions — they add wall-clock, not coverage — so the
/// trajectory samples the long-read regime (HiFi error profile, SS
/// threshold in the hundreds) at a length that simulates in seconds.
const LONG_READ_TRIM: usize = 1500;

/// One long-read representative: the SneakySnake filter (the paper's
/// long-read pre-alignment stage) over the `10Kbp` HiFi dataset with
/// reads trimmed to [`LONG_READ_TRIM`] bases.
fn long_read_kernel(scale: f64) -> (Workload, Algo, Tier) {
    let spec = DatasetSpec::d10k();
    let n = (scale.round() as usize).max(1);
    let mut pairs = spec.generate_n(SEED, n);
    for p in &mut pairs {
        p.pattern = p.pattern.subseq(0, p.pattern.len().min(LONG_READ_TRIM));
        p.text = p.text.subseq(0, p.text.len().min(LONG_READ_TRIM));
    }
    (Workload { spec, pairs }, Algo::Ss, Tier::Vec)
}

/// The kernel grid measured for the perf trajectory: the two short-read
/// Table II datasets crossed with the three modern algorithms at
/// baseline and hand-vectorised tiers (the Fig. 3 / Fig. 4 kernels),
/// plus the trimmed [`long_read_kernel`].
fn kernel_grid(scale: f64) -> Vec<(Workload, Algo, Tier)> {
    let workloads = table2_workloads(scale);
    let mut grid = Vec::new();
    for wl in workloads.into_iter().filter(|w| !w.is_long()) {
        for algo in [Algo::Wfa, Algo::BiWfa, Algo::Ss] {
            for tier in [Tier::Base, Tier::Vec] {
                grid.push((wl.clone(), algo, tier));
            }
        }
    }
    grid.push(long_read_kernel(scale));
    grid
}

fn kernel_name(algo: Algo, wl: &Workload, tier: Tier) -> String {
    let algo = match algo {
        Algo::Wfa => "wfa",
        Algo::BiWfa => "biwfa",
        Algo::Ss => "ss",
        Algo::Sw => "sw",
        Algo::Nw => "nw",
    };
    format!("{algo}/{}/{tier}", wl.spec.name).to_lowercase()
}

/// Measures the simulated-MIPS trajectory over the Fig. 3 / Fig. 4
/// kernel grid, once per execution engine: the cycle-level timing model
/// at the Table I configuration, the same timing model at the wide
/// 8-issue [`CoreConfig::wide8`] design point (the series the
/// event-driven timing wheel is gated on — per-retire cost must not
/// scale with the configured widths), and the compiled functional tier
/// (a `cycle`, `cycle_wide8` and `functional` series per kernel, in
/// that order). Each kernel is simulated single-threaded on machines
/// reset to cold-boot state per run (one [`MachinePool`] per engine,
/// built outside the timed region, so the number is simulator
/// throughput rather than machine construction), independent of
/// `QUETZAL_THREADS`.
pub fn measure_fig_kernels(scale: f64) -> Vec<KernelThroughput> {
    let engines = [
        ("cycle", MachineConfig::default(), BatchRunner::new(1)),
        (
            "cycle_wide8",
            MachineConfig {
                core: CoreConfig::wide8(),
            },
            BatchRunner::new(1),
        ),
        (
            "functional",
            MachineConfig::default(),
            BatchRunner::new(1).with_exec_mode(ExecMode::Functional),
        ),
    ];
    kernel_grid(scale)
        .into_iter()
        .flat_map(|(wl, algo, tier)| {
            engines
                .iter()
                .map(|(engine, cfg, serial)| {
                    let pool = MachinePool::new(cfg, serial.exec_mode());
                    let stats =
                        RunStats::merged(&run_algo_pairs_pooled(serial, &pool, algo, &wl, tier));
                    let m = timing::measure(&kernel_name(algo, &wl, tier), || {
                        run_algo_pairs_pooled(serial, &pool, algo, &wl, tier)
                    });
                    KernelThroughput {
                        kernel: m.name,
                        engine,
                        sim_instructions: stats.instructions,
                        sim_cycles: stats.cycles,
                        median_wall_ns: m.median_ns,
                        sim_mips: sim_mips(stats.instructions, m.median_ns),
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Functional-engine host cost of one instruction form.
#[derive(Debug, Clone)]
pub struct OpCost {
    /// Instruction form and element size, e.g. `valu_vv.b64`.
    pub op: &'static str,
    /// Host nanoseconds per retired instruction of the form's loop.
    pub ns_per_inst: f64,
}

/// Copies of the measured instruction in the loop body.
const OP_COPIES: usize = 32;
/// Loop iterations per run.
const OP_ITERS: i64 = 2000;
/// Runs per form; the fastest one is reported.
const OP_SAMPLES: usize = 5;

/// Emits one instance of an instruction form.
type Emit = fn(&mut ProgramBuilder);

/// The instruction forms of the cost table, one per instruction class
/// (vector ALU forms at two element sizes). Every form reads the state
/// [`op_cost_program`] stages and writes registers no other form or
/// the loop control reads.
const OP_FORMS: &[(&str, Emit)] = &[
    ("alu_ri", |b| {
        b.alu_ri(SAluOp::Add, X6, X1, 3);
    }),
    ("load", |b| {
        b.load(X6, X10, 8, MemSize::B8);
    }),
    ("store", |b| {
        b.store(X1, X10, 8, MemSize::B8);
    }),
    ("dup.b64", |b| {
        b.dup(V2, X1, ElemSize::B64);
    }),
    ("index.b64", |b| {
        b.index(V2, X1, 3, ElemSize::B64);
    }),
    ("valu_vv.b64", |b| {
        b.valu_vv(VAluOp::Add, V2, V0, V1, P0, ElemSize::B64);
    }),
    ("valu_vv.b8", |b| {
        b.valu_vv(VAluOp::Add, V2, V0, V1, P1, ElemSize::B8);
    }),
    ("valu_vi.b64", |b| {
        b.valu_vi(VAluOp::Smax, V2, V0, 9, P0, ElemSize::B64);
    }),
    ("vcmp_vv.b64", |b| {
        b.vcmp_vv(BranchCond::Lt, P2, V0, V1, P0, ElemSize::B64);
    }),
    ("vcmp_vi.b8", |b| {
        b.vcmp_vi(BranchCond::Ne, P2, V0, 0, P1, ElemSize::B8);
    }),
    ("vsel.b64", |b| {
        b.vsel(V2, P0, V0, V1, ElemSize::B64);
    }),
    ("vreduce.b64", |b| {
        b.vreduce(RedOp::Max, X6, V0, P0, ElemSize::B64);
    }),
    ("vslidedown.b64", |b| {
        b.vslidedown(V2, V0, 1, ElemSize::B64);
    }),
    ("vslide1up.b64", |b| {
        b.vslide1up(V2, V0, X1, ElemSize::B64);
    }),
    ("vload.b64", |b| {
        b.vload(V2, X10, P0, ElemSize::B64);
    }),
    ("vload.b8", |b| {
        b.vload(V2, X10, P1, ElemSize::B8);
    }),
    ("vload_n.b64", |b| {
        b.vload_n(V2, X10, P0, ElemSize::B64, MemSize::B1);
    }),
    ("vstore.b64", |b| {
        b.vstore(V0, X10, P0, ElemSize::B64);
    }),
    ("vgather.b64", |b| {
        b.vgather(V2, X10, V3, P0, ElemSize::B64, MemSize::B8, 8);
    }),
    ("vscatter.b64", |b| {
        b.vscatter(V0, X10, V3, P0, ElemSize::B64, MemSize::B8, 8);
    }),
    ("ptrue.b64", |b| {
        b.ptrue(P2, ElemSize::B64);
    }),
    ("pwhilelt.b64", |b| {
        b.pwhilelt(P2, X2, ElemSize::B64);
    }),
    ("pcount.b64", |b| {
        b.pcount(X6, P0, ElemSize::B64);
    }),
    ("qzload", |b| {
        b.qzload(V2, V4, QBufSel::Q0, P0);
    }),
    ("qzmhm", |b| {
        b.qzmhm(QzOp::Count, V2, V4, V4, P0);
    }),
    ("qzcount", |b| {
        b.qzcount(V2, V0, V1);
    }),
];

/// A loop of [`OP_ITERS`] iterations whose body is [`OP_COPIES`] copies
/// of one instruction form, after a prologue that stages its operands:
/// a page-aligned buffer at `x10`, all-true predicates at 64 and 8 bits,
/// distinct lanes in `v0`/`v1`, in-page gather offsets in `v3` and a
/// configured 2-bit QBUFFER pair indexed by `v4`.
fn op_cost_program(emit: Emit) -> quetzal::Program {
    let mut b = ProgramBuilder::new();
    b.mov_imm(X10, 0x1_0000).mov_imm(X1, 5).mov_imm(X2, 5);
    b.ptrue(P0, ElemSize::B64).ptrue(P1, ElemSize::B8);
    b.index(V0, X1, 7, ElemSize::B64).dup(V1, X2, ElemSize::B64);
    b.mov_imm(X0, 0).index(V3, X0, 1, ElemSize::B64);
    b.mov_imm(X4, 64).mov_imm(X5, 0).qzconf(X4, X4, X5);
    b.dup_imm(V4, 0, ElemSize::B64);
    b.mov_imm(X20, OP_ITERS).mov_imm(X21, 0);
    let top = b.label();
    b.bind(top);
    for _ in 0..OP_COPIES {
        emit(&mut b);
    }
    b.alu_ri(SAluOp::Add, X21, X21, 1);
    b.branch(BranchCond::Lt, X21, X20, top);
    b.halt();
    b.build().expect("op cost program builds")
}

/// Measures the functional engine's host cost per instruction for each
/// of [`OP_FORMS`]: the fastest of [`OP_SAMPLES`] runs of the form's
/// loop (after one untimed run that compiles it), divided by the
/// instructions it retires. The 2 loop-control instructions of every
/// 34 count in the divisor, so a row slightly understates a form that
/// costs more than a scalar add.
pub fn measure_op_costs() -> Vec<OpCost> {
    OP_FORMS
        .iter()
        .map(|&(op, emit)| {
            let program = op_cost_program(emit);
            let mut core = Core::new(CoreConfig::a64fx_like());
            core.set_exec_mode(ExecMode::Functional);
            let insts = core.run(&program).expect("op cost loop runs").instructions;
            let best = (0..OP_SAMPLES)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(core.run(&program).expect("op cost loop runs"));
                    start.elapsed().as_nanos() as f64
                })
                .fold(f64::INFINITY, f64::min);
            OpCost {
                op,
                ns_per_inst: best / insts as f64,
            }
        })
        .collect()
}

/// Renders the per-instruction cost table (stderr of `bench_uarch`).
pub fn op_cost_table(ops: &[OpCost]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Functional engine, host ns per instruction ({OP_COPIES}-copy loop body, \
         min of {OP_SAMPLES} runs)"
    );
    for o in ops {
        let _ = writeln!(out, "{:<16} {:>8.1}", o.op, o.ns_per_inst);
    }
    out
}

/// Renders measurements as the `BENCH_uarch.json` document (no external
/// JSON dependency; the format is flat and hand-emitted).
pub fn to_json(results: &[KernelThroughput], ops: &[OpCost], scale: f64) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"benchmark\": \"uarch-sim-throughput\",");
    let _ = writeln!(out, "  \"scale\": {scale},");
    let _ = writeln!(out, "  \"samples\": {},", timing::SAMPLES);
    let _ = writeln!(out, "  \"kernels\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"kernel\": \"{}\", \"engine\": \"{}\", \"sim_instructions\": {}, \
             \"sim_cycles\": {}, \"median_wall_ns\": {:.0}, \"sim_mips\": {:.2}}}{comma}",
            r.kernel, r.engine, r.sim_instructions, r.sim_cycles, r.median_wall_ns, r.sim_mips
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"ops_functional\": [");
    for (i, o) in ops.iter().enumerate() {
        let comma = if i + 1 == ops.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"op\": \"{}\", \"ns_per_inst\": {:.2}}}{comma}",
            o.op, o.ns_per_inst
        );
    }
    let _ = writeln!(out, "  ],");
    let cycle = engine_series(results, "cycle");
    let wide8 = engine_series(results, "cycle_wide8");
    let functional = engine_series(results, "functional");
    let geo = geomean_mips(&cycle);
    let geo_w = geomean_mips(&wide8);
    let geo_f = geomean_mips(&functional);
    let _ = writeln!(out, "  \"geomean_sim_mips\": {geo:.2},");
    let _ = writeln!(out, "  \"geomean_sim_mips_wide8\": {geo_w:.2},");
    let _ = writeln!(out, "  \"geomean_sim_mips_functional\": {geo_f:.2},");
    let speedup = if geo > 0.0 { geo_f / geo } else { 0.0 };
    let _ = writeln!(out, "  \"functional_speedup_geomean\": {speedup:.2}");
    out.push('}');
    out
}

/// The measurements of one engine's series, cloned out of the combined
/// results (order preserved).
pub fn engine_series(results: &[KernelThroughput], engine: &str) -> Vec<KernelThroughput> {
    results
        .iter()
        .filter(|r| r.engine == engine)
        .cloned()
        .collect()
}

/// Geometric mean of the per-kernel simulated MIPS.
pub fn geomean_mips(results: &[KernelThroughput]) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = results.iter().map(|r| r.sim_mips.max(1e-9).ln()).sum();
    (log_sum / results.len() as f64).exp()
}

/// Renders the human-readable summary table (the one `run_all` prints
/// to stderr — stderr so that stdout stays byte-identical across hosts
/// and thread counts).
pub fn summary_table(results: &[KernelThroughput]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Simulator throughput (simulated MIPS, median of {} samples)",
        timing::SAMPLES
    );
    let _ = writeln!(
        out,
        "{:<22} {:<10} {:>12} {:>12} {:>12} {:>10}",
        "kernel", "engine", "sim insts", "sim cycles", "wall", "sim MIPS"
    );
    for r in results {
        let _ = writeln!(
            out,
            "{:<22} {:<10} {:>12} {:>12} {:>12} {:>10.1}",
            r.kernel,
            r.engine,
            r.sim_instructions,
            r.sim_cycles,
            timing::fmt_ns(r.median_wall_ns),
            r.sim_mips
        );
    }
    let cycle = geomean_mips(&engine_series(results, "cycle"));
    let wide8 = geomean_mips(&engine_series(results, "cycle_wide8"));
    let functional = geomean_mips(&engine_series(results, "functional"));
    let _ = writeln!(out, "geomean sim MIPS: {cycle:.1} (cycle)");
    if wide8 > 0.0 {
        let _ = writeln!(out, "geomean sim MIPS: {wide8:.1} (cycle, wide8)");
    }
    if functional > 0.0 {
        let _ = writeln!(
            out,
            "geomean sim MIPS: {functional:.1} (functional, {:.1}x)",
            if cycle > 0.0 { functional / cycle } else { 0.0 }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(mips: f64) -> KernelThroughput {
        sample_engine(mips, "cycle")
    }

    fn sample_engine(mips: f64, engine: &'static str) -> KernelThroughput {
        KernelThroughput {
            kernel: "k".into(),
            engine,
            sim_instructions: 1000,
            sim_cycles: 2000,
            median_wall_ns: 10.0,
            sim_mips: mips,
        }
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        let rs = [sample(4.0), sample(4.0)];
        assert!((geomean_mips(&rs) - 4.0).abs() < 1e-9);
        assert_eq!(geomean_mips(&[]), 0.0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let rs = [sample(1.0), sample_engine(8.0, "functional")];
        let j = to_json(&rs, &[], 1.0);
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert_eq!(j.matches("\"kernel\"").count(), 2);
        assert_eq!(j.matches("\"engine\": \"cycle\"").count(), 1);
        assert_eq!(j.matches("\"engine\": \"functional\"").count(), 1);
        assert!(j.contains("\"geomean_sim_mips\": 1.00,"));
        assert!(j.contains("\"geomean_sim_mips_wide8\": 0.00,"));
        assert!(j.contains("\"geomean_sim_mips_functional\": 8.00,"));
        assert!(j.contains("\"functional_speedup_geomean\": 8.00"));
        // Entries are comma-separated with no trailing comma.
        assert_eq!(j.matches("},\n").count(), 1);
        assert!(j.contains("}\n  ],"));
        assert!(j.contains("\"ops_functional\": [\n  ],"));

        let ops = [
            OpCost {
                op: "alu_ri",
                ns_per_inst: 5.0,
            },
            OpCost {
                op: "valu_vv.b64",
                ns_per_inst: 12.345,
            },
        ];
        let j = to_json(&rs, &ops, 1.0);
        assert!(j.contains(
            "  \"ops_functional\": [\n    {\"op\": \"alu_ri\", \"ns_per_inst\": 5.00},\n    \
             {\"op\": \"valu_vv.b64\", \"ns_per_inst\": 12.35}\n  ],\n"
        ));
    }

    #[test]
    fn every_op_form_runs_on_the_functional_engine() {
        for &(op, emit) in OP_FORMS {
            let program = op_cost_program(emit);
            let mut core = Core::new(CoreConfig::a64fx_like());
            core.set_exec_mode(ExecMode::Functional);
            let stats = core.run(&program).unwrap_or_else(|e| panic!("{op}: {e}"));
            assert!(
                stats.instructions > (OP_COPIES as u64) * (OP_ITERS as u64),
                "{op}"
            );
        }
    }

    #[test]
    fn engine_series_splits_by_engine() {
        let rs = [
            sample(1.0),
            sample_engine(8.0, "functional"),
            sample(2.0),
            sample_engine(16.0, "functional"),
        ];
        let cycle = engine_series(&rs, "cycle");
        let f = engine_series(&rs, "functional");
        assert_eq!(cycle.len(), 2);
        assert_eq!(f.len(), 2);
        assert!((geomean_mips(&f) / geomean_mips(&cycle) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn summary_lists_every_kernel() {
        let rs = [sample(1.0), sample(2.0), sample(3.0)];
        let t = summary_table(&rs);
        assert!(t.matches('k').count() >= 3);
        assert!(t.contains("geomean"));
    }

    #[test]
    fn grid_covers_fig03_fig04_short_kernels_plus_long_read() {
        let grid = kernel_grid(0.25);
        // 2 short datasets x 3 algorithms x 2 tiers, plus the trimmed
        // long-read representative.
        assert_eq!(grid.len(), 13);
        let long: Vec<_> = grid.iter().filter(|(wl, _, _)| wl.is_long()).collect();
        assert_eq!(long.len(), 1);
        let (wl, algo, tier) = long[0];
        assert_eq!(*algo, Algo::Ss);
        assert_eq!(*tier, Tier::Vec);
        assert!(wl
            .pairs
            .iter()
            .all(|p| p.pattern.len() <= LONG_READ_TRIM && p.text.len() <= LONG_READ_TRIM));
    }

    #[test]
    fn measured_kernel_has_positive_throughput() {
        // One tiny end-to-end measurement (scale chosen so each dataset
        // has a single pair) to keep the test fast. All engines report
        // the same kernel back-to-back — cycle, then wide8, then
        // functional — with identical retired-instruction counts (the
        // differential suites pin the full architectural equivalence).
        let rs = measure_fig_kernels(0.01);
        let r = &rs[0];
        assert!(r.sim_instructions > 0);
        assert!(r.sim_mips > 0.0);
        assert!(r.kernel.starts_with("wfa/"));
        assert_eq!(r.engine, "cycle");
        let w = &rs[1];
        assert_eq!(w.engine, "cycle_wide8");
        assert_eq!(w.kernel, r.kernel);
        assert_eq!(w.sim_instructions, r.sim_instructions);
        assert!(w.sim_cycles > 0 && w.sim_cycles <= r.sim_cycles);
        let f = &rs[2];
        assert_eq!(f.engine, "functional");
        assert_eq!(f.kernel, r.kernel);
        assert_eq!(f.sim_instructions, r.sim_instructions);
        assert_eq!(f.sim_cycles, 0);
        assert!(f.sim_mips > 0.0);
    }
}
