//! XMT toolchain benchmark: XMTC source to verified simulated result.
//!
//! ```text
//! xmt-perfbench --workload <interactive|corpus|memory_bound|plugin_trace>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! diagnostic run that records spans and prints the per-layer metrics.
//! Human-readable lines (prefixed `#`) come first; the last line of
//! standard output is one JSON object. The exit code is 0 only when every
//! program's result matched its reference. See README.md.

mod kernels;
mod pipeline;
mod report;
mod spans;
mod workloads;

use report::{median, median_rank, tail_rank, END_TO_END, PER_LAYER};
use spans::Spans;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{CompileCounts, Kind, ProgramRun, Setup};
use xmt_harness::json::{Json, ToJson};

/// Set-ups per untraced run: at least `SETUP_MIN`, and more (up to
/// `SETUP_MAX`) while they have taken less than `SETUP_SECONDS` in all.
/// `setup_s` is their median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 15;
const SETUP_SECONDS: f64 = 2.0;
/// Timed rounds per run, at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Directory the traced run writes its span file into.
const OUT_DIR: &str = ".bench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&val).ok_or_else(|| format!("unknown workload `{val}`"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "xmt-perfbench: {e}\nusage: xmt-perfbench --workload <name> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("xmt-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A fixed CPU-and-cache workload: how fast the host is right now. A
/// diagnostic only; no end-to-end metric is adjusted by it.
fn host_probe_ms() -> f64 {
    let mut table: Vec<u64> = (0..1u64 << 18).collect();
    let mask = table.len() - 1;
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..1_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let j = x as usize & mask;
                table[j] = table[j].wrapping_add(x);
            }
            std::hint::black_box(&table);
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// One pass, reduced.
struct Round {
    /// Per program: latency and time inside `CycleSim::run`, in ns, or
    /// `None` when the program failed.
    times: Vec<Option<(u64, u64)>>,
    /// Simulated results, which must repeat exactly.
    exact: (u64, u64, u64, u64),
    failed: Vec<String>,
}

impl Round {
    fn wall_ns(&self) -> u64 {
        self.times.iter().flatten().map(|t| t.0).sum()
    }
}

fn reduce(runs: &[ProgramRun]) -> Round {
    let fps: Vec<u8> = runs
        .iter()
        .flat_map(|r| r.sim.stats_fp.to_le_bytes())
        .collect();
    let (mut cycles, mut instrs, mut events) = (0, 0, 0);
    for r in runs {
        cycles += r.sim.cycles;
        instrs += r.sim.instructions;
        events += r.sim.events;
    }
    Round {
        times: runs
            .iter()
            .map(|r| r.error.is_none().then_some((r.latency_ns, r.sim.run_ns)))
            .collect(),
        exact: (cycles, instrs, events, pipeline::fnv(&fps)),
        failed: runs.iter().filter_map(|r| r.error.clone()).collect(),
    }
}

/// Per program, its fastest latency and fastest run time over `timed`;
/// `None` for a program that failed in any round. Host speed on a shared
/// machine swings within a second, so the fastest instance of each
/// program is far steadier than any whole-pass figure.
fn fastest(timed: &[Round]) -> Vec<Option<(u64, u64)>> {
    (0..timed[0].times.len())
        .map(|i| {
            let all: Option<Vec<(u64, u64)>> = timed.iter().map(|r| r.times[i]).collect();
            let all = all?;
            Some((
                all.iter().map(|t| t.0).min()?,
                all.iter().map(|t| t.1).min()?,
            ))
        })
        .collect()
}

/// A warm-up pass, then timed passes for `seconds` (at least
/// `MIN_ROUNDS`). Returns the timed rounds; every pass is checked.
fn rounds(setup: &Setup, seconds: f64) -> Vec<Round> {
    let mut sp = Spans::new(false);
    let mut cc = CompileCounts::default();
    let warm = reduce(&workloads::pass(setup, false, false, &mut sp, &mut cc));
    let mut out = vec![];
    let start = Instant::now();
    while out.len() < MIN_ROUNDS || start.elapsed() < Duration::from_secs_f64(seconds) {
        out.push(reduce(&workloads::pass(
            setup, false, false, &mut sp, &mut cc,
        )));
    }
    // The warm-up pass is checked like the others but not timed.
    out.insert(0, warm);
    out
}

struct Verdict {
    attempted: u64,
    failed: u64,
    correct: bool,
}

/// Count failures over every pass and require simulated results to repeat
/// exactly from pass to pass.
fn verdict(all: &[Round]) -> Verdict {
    let attempted = all.iter().map(|r| r.times.len() as u64).sum();
    let failed = all.iter().map(|r| r.failed.len() as u64).sum();
    for msg in all.iter().flat_map(|r| &r.failed).take(5) {
        eprintln!("xmt-perfbench: mismatch: {msg}");
    }
    let repeat = all.iter().all(|r| r.exact == all[0].exact);
    if !repeat {
        eprintln!("xmt-perfbench: simulated results differ between passes of the same programs");
    }
    Verdict {
        attempted,
        failed,
        correct: failed == 0 && repeat,
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn untraced(args: &Args) -> Result<bool, String> {
    let probe_ms = host_probe_ms();
    let mut setup_s = Vec::new();
    let mut setup = None;
    while setup_s.len() < SETUP_MIN
        || (setup_s.len() < SETUP_MAX && setup_s.iter().sum::<f64>() < SETUP_SECONDS)
    {
        drop(setup.take()); // free the previous set-up before building the next
        let t = Instant::now();
        setup = Some(workloads::setup(
            args.kind,
            args.seed,
            &mut Spans::new(false),
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("SETUP_MIN > 0");
    let all = rounds(&setup, args.seconds);
    let v = verdict(&all);
    let timed = &all[1..];

    let n = setup.jobs.len();
    let best = fastest(timed);
    let wall_ns: u64 = best.iter().flatten().map(|t| t.0).sum();
    let run_ns: u64 = best.iter().flatten().map(|t| t.1).sum();
    // A program that failed is a missed sample, slower than every other.
    let mut lat: Vec<f64> = best
        .iter()
        .map(|t| t.map_or(f64::INFINITY, |t| t.0 as f64 / 1e6))
        .collect();
    lat.sort_by(f64::total_cmp);
    let (tail, tail_pct) = tail_rank(n);
    let (cycles, instrs, _, fp) = all[0].exact;
    let values = [
        instrs as f64 / secs(run_ns),
        cycles as f64 / secs(run_ns),
        secs(wall_ns),
        n as f64 / secs(wall_ns),
        lat[median_rank(n) - 1],
        lat[tail - 1],
        median(&setup_s),
        peak_rss_mb()?,
        cycles as f64,
        instrs as f64,
        (v.attempted - v.failed) as f64 / v.attempted as f64,
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();
    println!(
        "# workload {} seed {}: {} programs per pass, {} timed rounds",
        args.kind.name(),
        args.seed,
        n,
        timed.len()
    );
    for (name, unit, v) in &metrics {
        let note = match *name {
            "latency_ms_p50" => {
                format!("  (n={n} programs, fastest of {} rounds each)", timed.len())
            }
            "latency_ms_p99" => format!(
                "  (rank {tail} of n={n}: p{tail_pct:.1}, {} beyond)",
                n - tail
            ),
            "setup_s" => format!("  (median of {} set-ups)", setup_s.len()),
            _ => String::new(),
        };
        println!("# {name} = {v} {unit}{note}");
    }
    let rounds_s: Vec<String> = timed
        .iter()
        .map(|r| format!("{:.4}", secs(r.wall_ns())))
        .collect();
    println!("# round_wall_s = {}", rounds_s.join(" "));
    println!("# stats_fingerprint = {fp:016x}");
    println!("# host.probe_ms = {probe_ms}");
    println!(
        "{}",
        report::result_line(v.correct, v.attempted, v.failed, &metrics)
    );
    Ok(v.correct)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One program's row in the span file.
fn program_json((job, r): (&workloads::Job, &ProgramRun)) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(job.program.name.clone())),
        ("tcus".into(), job.cfg.n_tcus().to_json()),
        ("sim_cycles".into(), r.sim.cycles.to_json()),
        ("sim_instructions".into(), r.sim.instructions.to_json()),
        ("sim_events".into(), r.sim.events.to_json()),
        ("latency_ms".into(), Json::F(r.latency_ns as f64 / 1e6)),
    ])
}

fn traced(args: &Args) -> Result<bool, String> {
    let probe_ms = host_probe_ms();
    let mut sp = Spans::new(true);
    let setup = sp.span("setup", |sp| workloads::setup(args.kind, args.seed, sp))?;
    // Untraced passes first: the base of `trace.overhead_ratio`.
    let mut all = rounds(&setup, args.seconds / 2.0);
    let untraced_wall = median(
        &all[1..]
            .iter()
            .map(|r| r.wall_ns() as f64)
            .collect::<Vec<_>>(),
    );

    let mut pass_cc = CompileCounts::default();
    let traced_runs = workloads::pass(&setup, true, false, &mut sp, &mut pass_cc);
    // The same pass with the plug-ins flipped: `trace.event_inflation`
    // compares exact event counts with and without them.
    let mut off = Spans::new(false);
    let flipped = workloads::pass(&setup, false, true, &mut off, &mut CompileCounts::default());
    let (with, without) = if args.kind == Kind::PluginTrace {
        (&traced_runs, &flipped)
    } else {
        (&flipped, &traced_runs)
    };
    let traced_round = reduce(&traced_runs);
    let traced_wall = traced_round.wall_ns() as f64;
    all.push(traced_round);
    let mut flipped_round = reduce(&flipped);
    // Plug-ins change event counts by design, and nothing simulated.
    flipped_round.exact.2 = all[0].exact.2;
    all.push(flipped_round);
    let v = verdict(&all);

    let sum =
        |runs: &[ProgramRun], f: &dyn Fn(&ProgramRun) -> f64| -> f64 { runs.iter().map(f).sum() };
    let hp = |f: &dyn Fn(&xmtsim::cycle::HostProfile) -> f64| -> f64 {
        sum(&traced_runs, &|r| r.sim.profile.as_ref().map_or(0.0, f))
    };
    let st = |f: &dyn Fn(&xmtsim::stats::Stats) -> u64| -> f64 {
        sum(&traced_runs, &|r| f(&r.sim.stats) as f64)
    };
    let busy = hp(&|p| p.compute_s + p.memory_s + p.other_s + p.sched_s);
    let instrs = sum(&traced_runs, &|r| r.sim.instructions as f64);
    let cc = if args.kind == Kind::Interactive {
        pass_cc
    } else {
        setup.compile
    };
    let ns_ms = |ns: f64| ns / 1e6;
    let values = [
        sp.total_ms("xmtc.lex"),
        sp.total_ms("xmtc.parse"),
        sp.total_ms("xmtc.inline"),
        sp.total_ms("xmtc.sema"),
        sp.total_ms("xmtc.outline"),
        sp.total_ms("xmtc.lower"),
        sp.total_ms("xmtc.opt"),
        sp.total_ms("xmtc.codegen"),
        sp.total_ms("xmtc.layout"),
        sp.total_ms("isa.link"),
        cc.tokens as f64,
        cc.asm_instrs as f64,
        cc.layout_fixes as f64,
        ns_ms(sum(&traced_runs, &|r| r.sim.construct_ns as f64)),
        ratio(hp(&|p| p.compute_s), busy),
        ratio(hp(&|p| p.memory_s), busy),
        ratio(hp(&|p| p.sched_s), busy),
        ratio(hp(&|p| p.other_s), busy),
        ratio(sum(&traced_runs, &|r| r.sim.events as f64), instrs),
        ratio(hp(&|p| p.burst_instrs as f64), hp(&|p| p.bursts as f64)),
        ratio(hp(&|p| p.replay_instrs as f64), instrs),
        hp(&|p| p.fusions as f64),
        ratio(
            hp(&|p| p.hops_elided as f64),
            hp(&|p| p.express_legs as f64),
        ),
        ratio(hp(&|p| p.memory_events as f64), st(&|s| s.icn_packages)),
        hp(&|p| p.mem_drains as f64),
        ratio(hp(&|p| p.memory_s) * 1e6, st(&|s| s.dram_accesses)),
        ratio(
            st(&|s| s.cache_hits),
            st(&|s| s.cache_hits + s.cache_misses),
        ),
        st(&|s| s.dram_accesses),
        ratio(
            sum(with, &|r| r.sim.events as f64),
            sum(without, &|r| r.sim.events as f64),
        ),
        sum(with, &|r| r.sim.trace_records as f64),
        sum(with, &|r| r.sim.trace_dropped as f64),
        ns_ms(sum(with, &|r| r.sim.export_ns as f64)),
        ns_ms(sum(&traced_runs, &|r| r.sim.verify_ns as f64)),
        ns_ms(setup.reference_ns as f64),
        traced_wall / untraced_wall,
        probe_ms,
    ];
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect();

    let (cycles, instrs, events, fp) = all[0].exact;
    let path = format!("{OUT_DIR}/spans-{}-{}.json", args.kind.name(), args.seed);
    let header = vec![
        ("workload".to_string(), Json::Str(args.kind.name().into())),
        ("seed".to_string(), args.seed.to_json()),
        ("sim_cycles".to_string(), cycles.to_json()),
        ("sim_instructions".to_string(), instrs.to_json()),
        ("sim_events".to_string(), events.to_json()),
        (
            "stats_fingerprint".to_string(),
            Json::Str(format!("{fp:016x}")),
        ),
        (
            "programs".to_string(),
            Json::Arr(
                setup
                    .jobs
                    .iter()
                    .zip(&traced_runs)
                    .map(program_json)
                    .collect(),
            ),
        ),
    ];
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(&path, sp.to_json(header).encode()).map_err(|e| format!("{path}: {e}"))?;

    println!(
        "# workload {} seed {} (traced): spans in {path}",
        args.kind.name(),
        args.seed
    );
    for (name, unit, v) in &metrics {
        println!("# {name} = {v} {unit}");
    }
    println!("# stats_fingerprint = {fp:016x}");
    for (name, ms) in sp.self_ms() {
        println!("# self_ms {name} = {ms}");
    }
    println!(
        "{}",
        report::result_line(v.correct, v.attempted, v.failed, &metrics)
    );
    Ok(v.correct)
}
