//! `exec_conv`: the other half of the paper's claim — the optimizer's own
//! schedule, run by a real executor on the wall clock. In process, single
//! threaded, no server: `conv_exec` does all the work.

use std::time::Instant;

use baselines::OneDnnLike;
use conv_exec::naive::conv2d_naive;
use conv_exec::{
    BlockedTensor, NchwcConv, PackedKernel, ParTiledConv, SimdBackend, Tensor4, TiledConv,
};
use conv_spec::{ConvShape, LayoutConfig, MachineModel, TileConfig, TilingLevel};
use mopt_core::optimizer::heuristic_config;
use mopt_core::{MOptOptimizer, OptimizeResult, OptimizerOptions};
use mopt_model::MultiLevelModel;

use crate::checks::{check_schedule, machine, shape_of, Tally};
use crate::daemon::vm_hwm_mib;
use crate::names::{EXEC_CONV, EXEC_DENSE, EXEC_DEPTHWISE};
use crate::rng::SplitMix64;
use crate::spans::Recorder;
use crate::stats::{fastest, geometric_mean, percentile, sorted, spearman_correlation, top_k_loss};
use crate::{Context, Outcome};

/// Passes over the shape set; the first is discarded.
const ROUNDS: usize = 11;
/// Streamed between repetitions so every run starts with cold caches, as in
/// the paper's protocol (64 MiB, several times the largest L3 modelled).
const FLUSH_ELEMS: usize = 1 << 24;
const TOLERANCE: f32 = 1e-3;

struct Layer {
    /// Name used in metric names (`R4` for `R4*`).
    name: &'static str,
    shape: ConvShape,
    solved: OptimizeResult,
    input: Tensor4,
    kernel: Tensor4,
    reference: Tensor4,
}

impl Layer {
    fn config(&self) -> TileConfig {
        self.solved.ranked[0].config.clone()
    }

    fn gflops(&self, seconds: f64) -> f64 {
        self.shape.flops() as f64 / seconds / 1e9
    }
}

fn seeded_tensor(dims: (usize, usize, usize, usize), rng: &mut SplitMix64) -> Tensor4 {
    let len = dims.0 * dims.1 * dims.2 * dims.3;
    Tensor4::from_vec(dims, (0..len).map(|_| rng.next_f32()).collect())
}

fn operands(shape: &ConvShape, rng: &mut SplitMix64) -> (Tensor4, Tensor4) {
    let input = seeded_tensor((shape.n, shape.c, shape.input_h(), shape.input_w()), rng);
    let kernel = seeded_tensor((shape.k, shape.reduction_c(), shape.r, shape.s), rng);
    (input, kernel)
}

/// Solve each shape the way a client of the library would, and compute the
/// reference output once. This is the workload's set-up.
fn set_up(seed: u64, tally: &mut Tally) -> Vec<Layer> {
    let mut rng = SplitMix64::fork(seed, 0x4558_4543);
    EXEC_DENSE
        .iter()
        .chain(&EXEC_DEPTHWISE)
        .map(|&(name, op)| {
            let shape = shape_of(op);
            let solved =
                MOptOptimizer::new(shape, machine(), OptimizerOptions::default()).optimize();
            tally
                .record(check_schedule(&shape, &solved, 1, true).map_err(|e| format!("{op}: {e}")));
            let (input, kernel) = operands(&shape, &mut rng);
            let reference = conv2d_naive(&shape, &input, &kernel);
            Layer { name, shape, solved, input, kernel, reference }
        })
        .collect()
}

struct Flusher(Vec<f32>);

impl Flusher {
    fn new() -> Self {
        Flusher(vec![0.0; FLUSH_ELEMS])
    }

    /// A streaming read-modify-write pass with a carried dependence, so it
    /// is neither skipped nor reordered around the timed call.
    fn flush(&mut self, salt: f32) {
        let mut acc = salt;
        for v in self.0.iter_mut() {
            *v += acc * 1e-7;
            acc += *v;
        }
        std::hint::black_box(acc);
    }
}

/// Flush, time one call, check its output against the reference.
fn timed(
    layer: &Layer,
    flusher: &mut Flusher,
    tally: &mut Tally,
    worst: &mut f32,
    what: &str,
    run: impl FnOnce() -> Result<Tensor4, String>,
) -> f64 {
    flusher.flush(layer.shape.k as f32);
    let start = Instant::now();
    let output = run();
    let seconds = start.elapsed().as_secs_f64();
    tally.record(output.and_then(|out| {
        *worst = worst.max(layer.reference.max_abs_diff(&out));
        layer
            .reference
            .allclose(&out, TOLERANCE)
            .then_some(())
            .ok_or(format!("{what} on {}: output differs from conv2d_naive", layer.name))
    }));
    seconds
}

fn tiled(layer: &Layer) -> Result<Tensor4, String> {
    // The call README, the quickstart and the e2e tests use to execute a
    // served schedule; the backend is left to runtime dispatch.
    let conv = TiledConv::new(layer.shape, layer.config(), 1).map_err(|e| e.to_string())?;
    Ok(conv.run(&layer.input, &layer.kernel))
}

pub fn run(ctx: &Context) -> Result<Outcome, String> {
    let mut outcome = Outcome::new(EXEC_CONV);
    let begun = Instant::now();
    let layers = set_up(ctx.seed, &mut outcome.tally);
    let setup_s = begun.elapsed().as_secs_f64();

    let mut flusher = Flusher::new();
    let mut worst = 0f32;
    // seconds[layer][round]
    let mut seconds = vec![Vec::with_capacity(ROUNDS); layers.len()];
    for _ in 0..ROUNDS {
        for (layer, times) in layers.iter().zip(&mut seconds) {
            times.push(timed(
                layer,
                &mut flusher,
                &mut outcome.tally,
                &mut worst,
                "TiledConv",
                || tiled(layer),
            ));
        }
    }
    // Per shape, the fastest of the timed runs: the schedule and the code are
    // fixed, so whatever a slower run adds came from outside the program.
    let best: Vec<f64> = seconds.iter().map(|t| fastest(&t[1..])).collect();
    let by_latency = sorted(best.clone());
    let runs_per_second: Vec<f64> = best.iter().map(|s| 1.0 / s).collect();
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let timed_runs = (layers.len() * (ROUNDS - 1)) as u64;

    // Operations are the seven layers: throughput is the geometric mean of
    // their rates, p50 the median layer and p95 the slowest one.
    let e = &mut outcome.end_to_end;
    e.set("setup_s", setup_s, 1);
    e.set("throughput_ops_s", geometric_mean(&runs_per_second), timed_runs);
    e.set("latency_p50_us", percentile(&by_latency, 0.50) * 1e6, timed_runs);
    e.set("peak_rss_mb", vm_hwm_mib(&status).ok_or("no VmHWM in /proc/self/status")?, 1);

    if ctx.trace {
        let gflops: Vec<f64> = layers.iter().zip(&best).map(|(l, &s)| l.gflops(s)).collect();
        for (layer, &g) in layers.iter().zip(&gflops) {
            let row = crate::names::PER_LAYER
                .iter()
                .find(|m| m.name == format!("exec.tiled.{}_gflops", layer.name))
                .expect("a row per shape");
            outcome.per_layer.set(row.name, g, (ROUNDS - 1) as u64);
        }
        let dense = geometric_mean(&gflops[..EXEC_DENSE.len()]);
        let p = &mut outcome.per_layer;
        p.set("exec.dense_gflops", dense, (EXEC_DENSE.len() * (ROUNDS - 1)) as u64);
        p.set(
            "exec.depthwise_gflops",
            geometric_mean(&gflops[EXEC_DENSE.len()..]),
            (EXEC_DEPTHWISE.len() * (ROUNDS - 1)) as u64,
        );
        p.set("client.latency_p95_us", percentile(&by_latency, 0.95) * 1e6, timed_runs);
        p.set("exec.flops", layers.iter().map(|l| l.shape.flops() as f64).sum(), 1);
        let costs: Vec<f64> = layers.iter().map(|l| l.solved.ranked[0].predicted_cost).collect();
        p.set("quality.schedule_cost_geomean", geometric_mean(&costs), costs.len() as u64);
        other_executors(
            ctx,
            &layers[..EXEC_DENSE.len()],
            dense,
            &mut flusher,
            &mut worst,
            &mut outcome,
        );
        model_against_wall_clock(ctx.seed, &mut outcome);
        spans_of_one_pass(&layers, &mut outcome);
        outcome.per_layer.set("exec.max_abs_err", worst as f64, 1);
    }
    Ok(outcome)
}

/// The rows that say what a change to the dense throughput is made of: the
/// same schedules under the scalar microkernel, the blocked executor, two
/// threads, and the two baselines. The faster of two timed runs on every
/// dense shape (three would take the probe past 20 s: `NchwcConv` alone needs
/// 2 s per pass); aggregates are geometric means over the shapes.
fn other_executors(
    ctx: &Context,
    dense: &[Layer],
    tiled_gflops: f64,
    flusher: &mut Flusher,
    worst: &mut f32,
    outcome: &mut Outcome,
) {
    const RUNS: usize = 2;
    let n = (dense.len() * RUNS) as u64;
    let library = OneDnnLike::new(MachineModel { threads: 1, ..machine() });
    let err = |e: conv_exec::ExecError| e.to_string();
    let blocked = |l: &Layer| l.config().with_layout(LayoutConfig::blocked(8));
    // Fastest run per shape of one executor.
    let mut row = |what: &str, run: &dyn Fn(&Layer) -> Result<Tensor4, String>| -> Vec<f64> {
        let shape_seconds = |layer| {
            let runs: Vec<f64> = (0..RUNS)
                .map(|_| timed(layer, flusher, &mut outcome.tally, worst, what, || run(layer)))
                .collect();
            fastest(&runs)
        };
        dense.iter().map(shape_seconds).collect()
    };
    let gflops = |seconds: &[f64]| -> f64 {
        let per_shape: Vec<f64> = dense.iter().zip(seconds).map(|(l, &s)| l.gflops(s)).collect();
        geometric_mean(&per_shape)
    };
    let scalar = gflops(&row("TiledConv(Scalar)", &|l| {
        let conv = TiledConv::new(l.shape, l.config(), 1).map_err(err)?;
        Ok(conv.with_backend(SimdBackend::Scalar).run(&l.input, &l.kernel))
    }));
    let nchwc_seconds = row("NchwcConv", &|l| {
        Ok(NchwcConv::new(l.shape, blocked(l), 1).map_err(err)?.run(&l.input, &l.kernel))
    });
    let naive = gflops(&row("conv2d_naive", &|l| Ok(conv2d_naive(&l.shape, &l.input, &l.kernel))));
    let onednn = gflops(&row("OneDnnLike", &|l| Ok(library.run(&l.shape, &l.input, &l.kernel))));
    let par = (ctx.nproc >= 2).then(|| {
        gflops(&row("ParTiledConv(2)", &|l| {
            Ok(ParTiledConv::new(l.shape, l.config(), 2).map_err(err)?.run(&l.input, &l.kernel))
        }))
    });

    // Layout conversion and kernel packing on their own: what NchwcConv pays
    // on every run for converting in and out, and TiledConv::run for packing.
    let clock = |f: &mut dyn FnMut()| {
        let once = |_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        };
        fastest(&(0..3).map(once).collect::<Vec<_>>())
    };
    let (mut convert, mut pack_us) = (0.0, Vec::new());
    for layer in dense {
        let blocked_out = BlockedTensor::from_nchw(&layer.reference, 8);
        convert += clock(&mut || {
            std::hint::black_box(BlockedTensor::from_nchw(&layer.input, 8));
        });
        convert += clock(&mut || {
            std::hint::black_box(blocked_out.to_nchw());
        });
        pack_us.push(
            1e6 * clock(&mut || {
                std::hint::black_box(PackedKernel::pack(&layer.shape, &layer.kernel, 8));
            }),
        );
    }

    let p = &mut outcome.per_layer;
    p.set("exec.tiled_scalar_gflops", scalar, n);
    p.set("exec.simd_vs_scalar", tiled_gflops / scalar, n);
    p.set("exec.nchwc_gflops", gflops(&nchwc_seconds), n);
    p.set("exec.nchwc_pack_share", convert / nchwc_seconds.iter().sum::<f64>(), n);
    p.set("exec.pack_kernel_us", geometric_mean(&pack_us), 3 * dense.len() as u64);
    p.set("exec.naive_gflops", naive, n);
    p.set("exec.speedup_vs_naive", tiled_gflops / naive, n);
    p.set("exec.onednn_like_gflops", onednn, n);
    p.set("exec.speedup_vs_onednn_like", tiled_gflops / onednn, n);
    match par {
        Some(par) => p.set("exec.partiled2_gflops", par, n),
        None => outcome.notes.push("one core: exec.partiled2_gflops skipped (reads 0)".into()),
    }

    // Computed from the model, not measured: the DRAM traffic the schedule is
    // priced at, and the arithmetic intensity that implies.
    let bytes: f64 =
        dense.iter().map(|l| l.solved.ranked[0].prediction.volume(TilingLevel::L3) * 4.0).sum();
    let flops: f64 = dense.iter().map(|l| l.shape.flops() as f64).sum();
    p.set("exec.model_dram_bytes", bytes, dense.len() as u64);
    p.set("exec.ops_per_byte", flops / bytes, dense.len() as u64);
}

/// The paper's Fig. 5 on the wall clock: does the model rank schedules the
/// way the executor's run time does? One small dense shape, 16 schedules.
fn model_against_wall_clock(seed: u64, outcome: &mut Outcome) {
    const CONFIGS: usize = 16;
    let shape = ConvShape::new(1, 32, 32, 3, 3, 28, 28, 1).expect("a valid shape");
    let m = machine();
    let mut rng = SplitMix64::fork(seed, 0x5350_4541);
    let (input, kernel) = operands(&shape, &mut rng);
    let reference = conv2d_naive(&shape, &input, &kernel);
    let solved = MOptOptimizer::new(shape, m.clone(), OptimizerOptions::default()).optimize();
    let mut configs: Vec<TileConfig> = solved.ranked.iter().map(|r| r.config.clone()).collect();
    configs.push(heuristic_config(&shape, &m));
    configs.push(TileConfig::untiled(&shape));
    configs.extend(autotune::SearchSpace::new(&shape, &m).sample_many(4 * CONFIGS, rng.next_u64()));

    let (mut costs, mut seconds) = (Vec::new(), Vec::new());
    for config in configs {
        if costs.len() == CONFIGS {
            break;
        }
        // A sampled schedule the executor rejects is not a data point.
        let Ok(conv) = TiledConv::new(shape, config.clone(), 1) else { continue };
        let mut fastest = f64::INFINITY;
        for _ in 0..3 {
            let start = Instant::now();
            let out = conv.run(&input, &kernel);
            fastest = fastest.min(start.elapsed().as_secs_f64());
            outcome.tally.record(
                reference
                    .allclose(&out, TOLERANCE)
                    .then_some(())
                    .ok_or("sampled schedule: wrong output".into()),
            );
        }
        seconds.push(fastest);
        let model = MultiLevelModel::new(shape, m.clone(), config.permutation.clone());
        costs.push(model.predict_config(&config).bottleneck_cost);
    }
    let speed: Vec<f64> = seconds.iter().map(|s| 1.0 / s).collect();
    let n = costs.len() as u64;
    outcome.per_layer.set("model.wallclock_spearman", spearman_correlation(&costs, &seconds), n);
    outcome.per_layer.set("model.top1_loss", top_k_loss(&costs, &speed, 1), n);
}

/// One more pass with a span around each call, for `spans.json` and the
/// layer shares.
fn spans_of_one_pass(layers: &[Layer], outcome: &mut Outcome) {
    let mut rec = Recorder::new();
    for (id, layer) in layers.iter().enumerate() {
        rec.span("op", id as u64, |rec| {
            let conv = rec.span("conv_exec.new", id as u64, |_| {
                TiledConv::new(layer.shape, layer.config(), 1).expect("ran in the timed rounds")
            });
            let packed = rec.span("conv_exec.pack", id as u64, |_| {
                PackedKernel::pack(&layer.shape, &layer.kernel, 8)
            });
            rec.span("conv_exec.run_packed", id as u64, |_| {
                std::hint::black_box(conv.run_packed(&layer.input, &packed));
            });
        });
    }
    let own = rec.self_time_us();
    let total: f64 = own.values().sum();
    let exec: f64 =
        own.iter().filter(|(name, _)| name.starts_with("conv_exec.")).map(|(_, v)| v).sum();
    outcome.shares = vec![("share.exec", exec / total)];
    outcome.spans = rec.spans().to_vec();
}
