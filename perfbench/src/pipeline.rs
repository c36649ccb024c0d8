//! The toolchain pipeline under test: `xmtc::compile` → `xmt_isa` link →
//! input installation → `CycleSim::try_new` → `CycleSim::run`, followed by
//! the benchmark's own check of the result.
//!
//! Traced runs replace the single `xmtc::compile` call by the chain of
//! public pass functions it is made of, each in its own span, so the
//! compile cost splits by pass. [`compile_chain`] must stay in step with
//! `xmtc::compile`; every traced run checks that it produces the same
//! assembly, memory map and layout-fix count.

use crate::kernels::{self, Check, Program};
use crate::spans::Spans;
use std::time::Instant;
use xmt_harness::json::ToJson;
use xmt_isa::{asm, AsmItem, AsmProgram, Executable, MemoryMap};
use xmtc::{clustering, codegen, inline, layout, lexer, lower, opt, outline, parser, sema};
use xmtc::{CompileError, Options};
use xmtsim::cycle::HostProfile;
use xmtsim::stats::{MemHotspotFilter, Stats};
use xmtsim::trace::{TraceLevel, Tracer};
use xmtsim::{CycleSim, XmtConfig};

/// Records kept by the bounded tracer of plug-in runs (`xmtcc --trace=N`).
pub const TRACE_RECORDS: usize = 4096;
/// Hottest lines reported by the hotspot filter (`xmtcc --hotspots`).
pub const HOTSPOT_TOP: usize = 10;

/// What a compile produced, plus compiler-side counts.
#[derive(Debug, Clone)]
pub struct CompileOut {
    pub asm: AsmProgram,
    pub memmap: MemoryMap,
    pub layout_fixes: u32,
    /// Tokens lexed (only the pass chain counts them).
    pub tokens: u64,
}

impl CompileOut {
    pub fn asm_instrs(&self) -> u64 {
        self.asm
            .items
            .iter()
            .filter(|i| matches!(i, AsmItem::Instr(_)))
            .count() as u64
    }
}

/// `xmtc::compile` as one call (untraced), or as its pass chain in spans
/// (traced). A traced compile is also checked, outside its span, against
/// `xmtc::compile` itself.
pub fn compile(src: &str, opts: &Options, sp: &mut Spans) -> Result<CompileOut, String> {
    if !sp.is_on() {
        let out = sp
            .span("compile", |_| xmtc::compile(src, opts))
            .map_err(|e| e.to_string())?;
        return Ok(CompileOut {
            asm: out.asm,
            memmap: out.memmap,
            layout_fixes: out.layout_fixes,
            tokens: 0,
        });
    }
    let c = sp
        .span("compile", |sp| compile_chain(src, opts, sp))
        .map_err(|e| e.to_string())?;
    let whole = xmtc::compile(src, opts).map_err(|e| e.to_string())?;
    if asm::to_text(&c.asm) != asm::to_text(&whole.asm)
        || c.memmap != whole.memmap
        || c.layout_fixes != whole.layout_fixes
    {
        return Err("the pass chain diverges from xmtc::compile".into());
    }
    Ok(c)
}

/// The public passes of `xmtc::compile`, in its order, one span each.
pub fn compile_chain(
    src: &str,
    opts: &Options,
    sp: &mut Spans,
) -> Result<CompileOut, CompileError> {
    let tokens = sp
        .span("xmtc.lex", |_| lexer::lex(src))
        .map_err(parser::ParseError::from)?;
    // `parser::parse` lexes again itself: `xmtc.parse` includes lexing.
    let mut ast = sp.span("xmtc.parse", |_| parser::parse(src))?;
    sp.span("xmtc.inline", |_| inline::inline_parallel_calls(&mut ast))?;
    let mut checked = sp.span("xmtc.sema", |_| sema::check(ast))?;
    sp.span("xmtc.inline", |_| {
        inline::prune_dead_functions(&mut checked.program)
    });
    sp.span("xmtc.outline", |_| {
        if let Some(c) = opts.clustering.filter(|&c| c > 1) {
            clustering::cluster(&mut checked.program, c);
        }
        if opts.outline {
            outline::outline(&mut checked.program);
        }
    });
    let mut module = sp.span("xmtc.lower", |_| lower::lower(&checked, opts))?;
    sp.span("xmtc.opt", |_| opt::optimize(&mut module, opts));
    let mut asm = sp.span("xmtc.codegen", |_| codegen::emit(&module, opts))?;
    let layout_fixes = sp.span("xmtc.layout", |_| {
        let fixes = layout::fix_layout(&mut asm)?;
        layout::verify(&asm)?;
        Ok::<u32, String>(fixes)
    });
    Ok(CompileOut {
        asm,
        memmap: module.memmap,
        layout_fixes: layout_fixes.map_err(CompileError::Verify)?,
        tokens: tokens.len() as u64,
    })
}

/// Link and install the program's inputs.
pub fn link(c: &CompileOut, p: &Program, sp: &mut Spans) -> Result<Executable, String> {
    sp.span("isa.link", |_| {
        let mut exe = c.asm.link(c.memmap.clone()).map_err(|e| e.to_string())?;
        install(&mut exe, &p.inputs)?;
        Ok(exe)
    })
}

fn install(exe: &mut Executable, inputs: &[(String, Vec<u32>)]) -> Result<(), String> {
    for (g, words) in inputs {
        if !exe.memmap.set_values(g, words) {
            return Err(format!(
                "cannot install input `{g}` ({} words)",
                words.len()
            ));
        }
    }
    Ok(())
}

/// How a simulation is set up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimMode {
    /// Attach the bounded cycle-accurate tracer and the hotspot filter.
    pub plugins: bool,
    /// Split the run's host time with `enable_host_profiling`.
    pub profile: bool,
}

/// Everything one simulated run reports.
#[derive(Debug, Clone, Default)]
pub struct SimOut {
    pub construct_ns: u64,
    pub run_ns: u64,
    pub export_ns: u64,
    pub cycles: u64,
    pub instructions: u64,
    pub events: u64,
    pub stats: Stats,
    pub profile: Option<HostProfile>,
    pub trace_records: u64,
    pub trace_dropped: u64,
    /// Fingerprint of the run's `Stats` JSON.
    pub stats_fp: u64,
    /// The first failed check, if any.
    pub mismatch: Option<String>,
    pub verify_ns: u64,
}

/// FNV-1a over bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Construct, run and (outside the timed spans) check one executable.
pub fn simulate(
    exe: Executable,
    cfg: &XmtConfig,
    mode: SimMode,
    checks: &[Check],
    sp: &mut Spans,
) -> Result<SimOut, String> {
    let mut out = SimOut::default();
    let t = Instant::now();
    let mut sim = sp.span("sim.construct", |_| CycleSim::try_new(exe, cfg.clone()))?;
    if mode.plugins {
        sim.add_filter(Box::new(MemHotspotFilter::new(cfg.line_bytes, HOTSPOT_TOP)));
        sim.attach_tracer(Tracer::new(TraceLevel::CycleAccurate).with_max_records(TRACE_RECORDS));
    }
    if mode.profile {
        sim.enable_host_profiling();
    }
    out.construct_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let summary = sp
        .span("sim.run", |_| sim.run())
        .map_err(|e| e.to_string())?;
    out.run_ns = t.elapsed().as_nanos() as u64;
    if mode.plugins {
        // What `xmtcc --trace=N --hotspots` prints after the run.
        let t = Instant::now();
        let text = sp.span("trace.export", |_| {
            let mut text = sim
                .tracer
                .as_ref()
                .map(|tr| tr.to_text())
                .unwrap_or_default();
            for r in sim.filter_reports() {
                text.push_str(&r);
            }
            text
        });
        std::hint::black_box(text);
        out.export_ns = t.elapsed().as_nanos() as u64;
        if let Some(tr) = &sim.tracer {
            out.trace_records = tr.records().len() as u64;
            out.trace_dropped = tr.dropped();
        }
    }
    let t = Instant::now();
    out.mismatch = sp
        .span("check.verify", |_| {
            kernels::verify(checks, &sim.machine, sim.executable())
        })
        .err();
    out.stats_fp = fnv(sim.stats.to_json_string().as_bytes());
    out.verify_ns = t.elapsed().as_nanos() as u64;
    out.cycles = summary.cycles;
    out.instructions = summary.instructions;
    out.events = summary.events;
    out.profile = sim.host_profile().cloned();
    out.stats = sim.stats;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_harness::prop::Gen;
    use xmt_workloads::fuzz;

    fn assert_chain_matches(src: &str) {
        let opts = Options::default();
        let whole = xmtc::compile(src, &opts).expect("compiles");
        let mut sp = Spans::new(true);
        let chain = compile_chain(src, &opts, &mut sp).expect("chain compiles");
        assert_eq!(asm::to_text(&chain.asm), asm::to_text(&whole.asm));
        assert_eq!(chain.memmap, whole.memmap);
        assert_eq!(chain.layout_fixes, whole.layout_fixes);
        assert!(chain.tokens > 0);
        for pass in [
            "xmtc.lex",
            "xmtc.parse",
            "xmtc.sema",
            "xmtc.lower",
            "xmtc.codegen",
        ] {
            assert!(sp.list().iter().any(|s| s.name == pass), "no {pass} span");
        }
    }

    #[test]
    fn pass_chain_reproduces_compile_on_corpus_and_fuzz() {
        for p in kernels::corpus(&kernels::SMALL, 5) {
            assert_chain_matches(&p.source);
        }
        assert_chain_matches(&kernels::stream(4096, 1).source);
        let mut g = Gen::new(11, 256);
        for _ in 0..40 {
            assert_chain_matches(&fuzz::render(&fuzz::generate(&mut g)));
        }
    }
}
