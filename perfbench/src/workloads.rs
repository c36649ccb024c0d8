//! The four workloads: their set-up (inputs, references, untimed
//! compiles) and one pass of their body.

use crate::kernels::{self, Program};
use crate::pipeline::{self, CompileOut, SimMode, SimOut};
use crate::spans::Spans;
use std::time::Instant;
use xmt_harness::prop::Gen;
use xmt_isa::Executable;
use xmt_workloads::fuzz;
use xmtc::Options;
use xmtsim::{FunctionalSim, XmtConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Small programs, each compiled, linked, installed, run on `fpga64`
    /// and checked: the edit–compile–run loop, dominated by the compiler.
    Interactive,
    /// The 14 corpus kernels at medium sizes on `fpga64` and `chip1024`,
    /// compiled in set-up: the Table I headline number.
    Corpus,
    /// A streaming read-modify-write kernel over 3× chip1024's shared
    /// cache: the memory layer does almost all the work.
    MemoryBound,
    /// The corpus kernels on `chip1024` with the bounded tracer and the
    /// hotspot filter attached (`xmtcc --trace=N --hotspots`).
    PluginTrace,
}

pub const KINDS: [Kind; 4] = [
    Kind::Interactive,
    Kind::Corpus,
    Kind::MemoryBound,
    Kind::PluginTrace,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Interactive => "interactive",
            Kind::Corpus => "corpus",
            Kind::MemoryBound => "memory_bound",
            Kind::PluginTrace => "plugin_trace",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        KINDS.into_iter().find(|k| k.name() == s)
    }
}

/// Generated fuzz programs per `interactive` pass. With the 14 corpus
/// programs this gives 1014 latency samples per pass, enough for a true
/// p99 (ten samples beyond it), while a pass stays short enough (about a
/// second) for every program to be timed in many rounds.
pub const FUZZ_PROGRAMS: usize = 1000;

/// One program run of a pass.
pub struct Job {
    pub program: Program,
    pub cfg: XmtConfig,
    /// Compiled and linked in set-up; `None` compiles inside the timed
    /// span (the `interactive` workload).
    pub exe: Option<Executable>,
    pub plugins: bool,
}

/// Counts from the compiles a workload pays for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileCounts {
    pub tokens: u64,
    pub asm_instrs: u64,
    pub layout_fixes: u64,
}

impl CompileCounts {
    fn add(&mut self, c: &CompileOut) {
        self.tokens += c.tokens;
        self.asm_instrs += c.asm_instrs();
        self.layout_fixes += c.layout_fixes as u64;
    }
}

pub struct Setup {
    pub jobs: Vec<Job>,
    /// Host time of input generation plus reference computation.
    pub reference_ns: u64,
    /// Compiles done in set-up for the jobs (not for references).
    pub compile: CompileCounts,
}

fn compile_job(
    p: &Program,
    sp: &mut Spans,
    counts: &mut CompileCounts,
) -> Result<Executable, String> {
    let c = pipeline::compile(&p.source, &Options::default(), sp)?;
    counts.add(&c);
    pipeline::link(&c, p, sp)
}

/// A functional-mode reference for a fuzz program: the checks its
/// cycle-accurate run must pass.
fn fuzz_reference(spec: &fuzz::ProgramSpec, p: &mut Program) -> Result<(), String> {
    let out = xmtc::compile(&p.source, &Options::default()).map_err(|e| e.to_string())?;
    let mut exe = out.link().map_err(|e| e.to_string())?;
    for (g, w) in &p.inputs {
        if !exe.memmap.set_values(g, w) {
            return Err(format!("cannot install `{g}`"));
        }
    }
    let mut f = FunctionalSim::new(exe.clone());
    f.run()
        .map_err(|e| format!("{}: functional reference failed: {e:?}", p.name))?;
    p.checks = kernels::functional_checks(spec, &f.machine, &exe)?;
    Ok(())
}

/// The `interactive` program stream: the small corpus cases spread
/// evenly among `fuzz_n` generated programs.
pub fn interactive_programs(seed: u64, fuzz_n: usize) -> Result<Vec<Program>, String> {
    let corpus = kernels::corpus(&kernels::SMALL, seed);
    let mut g = Gen::new(seed ^ 0x5eed_f00d_cafe_0001, 256);
    let mut out = Vec::with_capacity(fuzz_n + corpus.len());
    let every = (fuzz_n / corpus.len()).max(1);
    let mut corpus = corpus.into_iter();
    for i in 0..fuzz_n {
        if i % every == 0 {
            out.extend(corpus.next());
        }
        let spec = fuzz::generate(&mut g);
        let mut p = kernels::fuzz_program(&spec, i);
        fuzz_reference(&spec, &mut p)?;
        out.push(p);
    }
    out.extend(corpus);
    Ok(out)
}

/// Build a workload's inputs, references and untimed compiles.
pub fn setup(kind: Kind, seed: u64, sp: &mut Spans) -> Result<Setup, String> {
    let mut compile = CompileCounts::default();
    let t = Instant::now();
    let programs = sp.span("check.reference", |_| match kind {
        Kind::Interactive => interactive_programs(seed, FUZZ_PROGRAMS),
        Kind::Corpus | Kind::PluginTrace => Ok(kernels::corpus(&kernels::MEDIUM, seed)),
        Kind::MemoryBound => Ok(vec![kernels::stream(kernels::STREAM_WORDS, seed)]),
    })?;
    let reference_ns = t.elapsed().as_nanos() as u64;
    let configs: &[XmtConfig] = &match kind {
        Kind::Interactive => vec![XmtConfig::fpga64()],
        Kind::Corpus => vec![XmtConfig::fpga64(), XmtConfig::chip1024()],
        Kind::MemoryBound | Kind::PluginTrace => vec![XmtConfig::chip1024()],
    };
    let mut jobs = Vec::new();
    for (i, p) in programs.into_iter().enumerate() {
        sp.program = i;
        let exe = match kind {
            Kind::Interactive => None,
            _ => Some(compile_job(&p, sp, &mut compile)?),
        };
        for cfg in configs {
            jobs.push(Job {
                program: p.clone(),
                cfg: cfg.clone(),
                exe: exe.clone(),
                plugins: kind == Kind::PluginTrace,
            });
        }
    }
    Ok(Setup {
        jobs,
        reference_ns,
        compile,
    })
}

/// One program's figures in a pass.
pub struct ProgramRun {
    /// Source (or installed executable) to result, checks excluded.
    pub latency_ns: u64,
    pub sim: SimOut,
    pub error: Option<String>,
}

/// Run every job once, in order: one client, no think time.
pub fn pass(
    setup: &Setup,
    profile: bool,
    flip_plugins: bool,
    sp: &mut Spans,
    compile: &mut CompileCounts,
) -> Vec<ProgramRun> {
    setup
        .jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            sp.program = i;
            let mode = SimMode {
                plugins: job.plugins != flip_plugins,
                profile,
            };
            let t = Instant::now();
            let r = sp.span("program", |sp| {
                let (exe, front_ns) = match &job.exe {
                    Some(exe) => (exe.clone(), 0),
                    None => {
                        let c = pipeline::compile(&job.program.source, &Options::default(), sp)?;
                        compile.add(&c);
                        let exe = pipeline::link(&c, &job.program, sp)?;
                        (exe, t.elapsed().as_nanos() as u64)
                    }
                };
                let sim = pipeline::simulate(exe, &job.cfg, mode, &job.program.checks, sp)?;
                Ok::<_, String>((front_ns, sim))
            });
            match r {
                Ok((front_ns, sim)) => ProgramRun {
                    latency_ns: front_ns + sim.construct_ns + sim.run_ns + sim.export_ns,
                    error: sim
                        .mismatch
                        .as_ref()
                        .map(|e| format!("{}: {e}", job.program.name)),
                    sim,
                },
                Err(e) => ProgramRun {
                    latency_ns: t.elapsed().as_nanos() as u64,
                    sim: SimOut::default(),
                    error: Some(format!("{}: {e}", job.program.name)),
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_programs_other_seed_differs() {
        let a = interactive_programs(3, 28).unwrap();
        let b = interactive_programs(3, 28).unwrap();
        let c = interactive_programs(4, 28).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 28 + 14);
        let fuzz_src = |v: &[Program]| -> Vec<String> {
            v.iter()
                .filter(|p| p.name.starts_with("fuzz/"))
                .map(|p| p.source.clone())
                .collect()
        };
        assert_ne!(fuzz_src(&a), fuzz_src(&c));
        assert_ne!(
            kernels::corpus(&kernels::SMALL, 3),
            kernels::corpus(&kernels::SMALL, 4)
        );
        assert_eq!(kernels::stream(2048, 9), kernels::stream(2048, 9));
        assert_ne!(kernels::stream(2048, 9), kernels::stream(2048, 10));
    }

    #[test]
    fn same_seed_same_counts() {
        let counts = || {
            let mut sp = Spans::new(false);
            let s = setup(Kind::Corpus, 21, &mut sp).unwrap();
            let small = Setup {
                jobs: s
                    .jobs
                    .into_iter()
                    .filter(|j| j.cfg.clusters == 8)
                    .take(3)
                    .collect(),
                ..s
            };
            let mut cc = CompileCounts::default();
            pass(&small, false, false, &mut sp, &mut cc)
                .iter()
                .map(|r| {
                    assert_eq!(r.error, None);
                    (
                        r.sim.cycles,
                        r.sim.instructions,
                        r.sim.events,
                        r.sim.stats_fp,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(), counts());
    }
}
