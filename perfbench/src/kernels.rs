//! The programs the workloads run: XMTC source, the generated inputs it
//! is given, and the checks its result must pass.
//!
//! Every reference here comes from outside the compiler under test: the
//! serial Rust baselines of `xmt_workloads::baselines`, a Rust model of
//! the streaming kernel, or (for generated fuzz programs) the memory image
//! and print stream of a fast-functional-mode run of the same program.

use xmt_isa::Executable;
use xmt_workloads::{baselines, fuzz, gen, programs};
use xmtsim::differential::FunctionalCheck;
use xmtsim::Machine;

/// One check of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// The global's first `want.len()` words equal `want`.
    Exact { global: String, want: Vec<u32> },
    /// The global's first `want.len()` words, sorted, equal `want`
    /// (already sorted) — for results whose placement is order-free.
    Multiset { global: String, want: Vec<u32> },
    /// Float global within `tol` of `want`.
    Floats {
        global: String,
        want: Vec<f32>,
        tol: f32,
    },
    /// The printed integers equal `want`.
    Prints(Vec<i32>),
}

/// A program ready for the pipeline: source, inputs, checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub name: String,
    pub source: String,
    /// Globals to overwrite with generated inputs before the run.
    pub inputs: Vec<(String, Vec<u32>)>,
    pub checks: Vec<Check>,
}

fn words(v: &[i32]) -> Vec<u32> {
    v.iter().map(|&x| x as u32).collect()
}

fn fwords(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn exact(global: &str, want: &[i32]) -> Check {
    Check::Exact {
        global: global.into(),
        want: words(want),
    }
}

fn input(global: &str, v: &[i32]) -> (String, Vec<u32>) {
    (global.into(), words(v))
}

fn finput(global: &str, v: &[f32]) -> (String, Vec<u32>) {
    (global.into(), fwords(v))
}

/// Sizes of the 14 corpus kernels.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub compaction: usize,
    pub vecadd: usize,
    pub prefix: usize,
    pub reduction: usize,
    pub bfs: (usize, usize),
    pub connectivity: (usize, usize, usize),
    pub matmul: usize,
    pub histogram: (usize, usize),
    pub ranksort: usize,
    pub fft: usize,
    pub spmv: (usize, usize),
    pub listrank: usize,
    pub samplesort: (usize, usize),
    pub listsum: usize,
}

/// The sizes of `xmt_workloads::corpus::small_corpus()`.
pub const SMALL: Sizes = Sizes {
    compaction: 64,
    vecadd: 64,
    prefix: 64,
    reduction: 64,
    bfs: (48, 96),
    connectivity: (48, 96, 3),
    matmul: 8,
    histogram: (64, 8),
    ranksort: 48,
    fft: 32,
    spmv: (32, 4),
    listrank: 32,
    samplesort: (64, 8),
    listsum: 32,
};

/// Medium sizes for the `corpus` and `plugin_trace` workloads, chosen so
/// that no single kernel dominates host time.
pub const MEDIUM: Sizes = Sizes {
    compaction: 4096,
    vecadd: 4096,
    prefix: 1024,
    reduction: 4096,
    bfs: (1024, 4096),
    connectivity: (512, 1024, 4),
    matmul: 24,
    histogram: (4096, 64),
    ranksort: 192,
    fft: 512,
    spmv: (1024, 8),
    listrank: 1024,
    samplesort: (256, 32),
    listsum: 1024,
};

/// Kernel names in corpus order.
pub const CORPUS_NAMES: [&str; 14] = [
    "compaction",
    "vecadd",
    "prefix",
    "reduction",
    "bfs",
    "connectivity",
    "matmul",
    "histogram",
    "ranksort",
    "fft",
    "spmv",
    "listrank",
    "samplesort",
    "listsum",
];

fn log2_ceil(n: usize) -> u32 {
    usize::BITS - (n.max(2) - 1).leading_zeros()
}

/// The 14 corpus kernels (parallel variant) at `sz`, inputs drawn from
/// `seed` (kernel `k` uses `seed + 16·k`, its second array `+1`).
pub fn corpus(sz: &Sizes, seed: u64) -> Vec<Program> {
    CORPUS_NAMES
        .iter()
        .enumerate()
        .map(|(k, name)| kernel(name, sz, seed.wrapping_add(16 * k as u64)))
        .collect()
}

fn kernel(name: &str, sz: &Sizes, seed: u64) -> Program {
    let s1 = seed.wrapping_add(1);
    let (label, source, inputs, checks) = match name {
        "compaction" => {
            let n = sz.compaction;
            let a = gen::sparse_array(n, 0.3, seed);
            let want = baselines::compaction(&a);
            let mut sorted = words(&want);
            sorted.sort_unstable();
            (
                format!("{n}"),
                programs::compaction_par(n),
                vec![input("A", &a)],
                vec![
                    Check::Prints(vec![want.len() as i32]),
                    Check::Multiset {
                        global: "B".into(),
                        want: sorted,
                    },
                ],
            )
        }
        "vecadd" => {
            let n = sz.vecadd;
            let a = gen::int_array(n, -1000, 1000, seed);
            let b = gen::int_array(n, -1000, 1000, s1);
            let want = baselines::vector_add(&a, &b);
            (
                format!("{n}"),
                programs::vecadd_par(n),
                vec![input("A", &a), input("B", &b)],
                vec![exact("C", &want)],
            )
        }
        "prefix" => {
            let n = sz.prefix;
            let a = gen::int_array(n, -100, 100, seed);
            let want = baselines::prefix_sum(&a);
            (
                format!("{n}"),
                programs::prefix_par(n),
                vec![input("A", &a)],
                vec![exact("A", &want)],
            )
        }
        "reduction" => {
            let n = sz.reduction;
            let a = gen::int_array(n, -100, 100, seed);
            let want = baselines::reduction(&a);
            (
                format!("{n}"),
                programs::reduction_par(n),
                vec![input("A", &a)],
                vec![Check::Prints(vec![want])],
            )
        }
        "bfs" => {
            let (n, m) = sz.bfs;
            let g = gen::graph(n, m, 1, seed);
            let (off, adj) = g.csr();
            let dist = baselines::bfs(&off, &adj, 0);
            let max_level = *dist.iter().max().expect("graph has vertices");
            (
                format!("{n}v{m}e"),
                programs::bfs_par(n, adj.len()),
                vec![input("OFF", &off), input("ADJ", &adj)],
                vec![Check::Prints(vec![max_level]), exact("DIST", &dist)],
            )
        }
        "connectivity" => {
            let (n, m, comps) = sz.connectivity;
            let g = gen::graph(n, m, comps, seed);
            let want = baselines::components(g.n, &g.edges) as i32;
            let (src, dst) = g.edge_arrays();
            (
                format!("{n}v{m}e"),
                programs::connectivity_par(n, g.edges.len()),
                vec![input("ESRC", &src), input("EDST", &dst)],
                vec![Check::Prints(vec![want])],
            )
        }
        "matmul" => {
            let k = sz.matmul;
            let a = gen::int_array(k * k, -10, 10, seed);
            let b = gen::int_array(k * k, -10, 10, s1);
            let want = baselines::matmul(k, &a, &b);
            (
                format!("{k}x{k}"),
                programs::matmul_par(k),
                vec![input("A", &a), input("B", &b)],
                vec![exact("C", &want)],
            )
        }
        "histogram" => {
            let (n, buckets) = sz.histogram;
            let a = gen::int_array(n, 0, 1_000_000, seed);
            let want = baselines::histogram(&a, buckets);
            (
                format!("{n}x{buckets}"),
                programs::histogram_par(n, buckets),
                vec![input("A", &a)],
                vec![exact("H", &want)],
            )
        }
        "ranksort" => {
            let n = sz.ranksort;
            let a = gen::int_array(n, -500, 500, seed);
            let want = baselines::rank_sort(&a);
            (
                format!("{n}"),
                programs::ranksort_par(n),
                vec![input("A", &a)],
                vec![exact("B", &want)],
            )
        }
        "fft" => {
            let n = sz.fft;
            let re = gen::float_array(n, -1.0, 1.0, seed);
            let im = gen::float_array(n, -1.0, 1.0, s1);
            let (twr, twi) = gen::twiddles(n);
            let (mut wr, mut wi) = (re.clone(), im.clone());
            baselines::fft(&mut wr, &mut wi);
            let tol = 1e-3;
            (
                format!("{n}"),
                programs::fft_par(n),
                vec![
                    input("BR", &gen::bit_reversal(n)),
                    finput("RE", &re),
                    finput("IM", &im),
                    finput("TWR", &twr),
                    finput("TWI", &twi),
                ],
                vec![
                    Check::Floats {
                        global: "XR".into(),
                        want: wr,
                        tol,
                    },
                    Check::Floats {
                        global: "XI".into(),
                        want: wi,
                        tol,
                    },
                ],
            )
        }
        "spmv" => {
            let (n, deg) = sz.spmv;
            let (off, col, val) = gen::sparse_matrix(n, deg, seed);
            let x = gen::int_array(n, -50, 50, s1);
            let want = baselines::spmv(&off, &col, &val, &x);
            (
                format!("{n}x{deg}"),
                programs::spmv_par(n, col.len()),
                vec![
                    input("OFF", &off),
                    input("COL", &col),
                    input("VAL", &val),
                    input("X", &x),
                ],
                vec![exact("Y", &want)],
            )
        }
        "listrank" => {
            let n = sz.listrank;
            let next = gen::linked_list(n, seed);
            let want = baselines::list_rank(&next);
            (
                format!("{n}"),
                programs::listrank_par(n, log2_ceil(n)),
                vec![input("NEXT", &next)],
                vec![exact("RANK", &want)],
            )
        }
        "samplesort" => {
            let (n, s) = sz.samplesort;
            let a = gen::int_array(n, -500, 500, seed);
            let want = baselines::sample_sort(&a);
            (
                format!("{n}x{s}"),
                programs::samplesort_par(n, s),
                vec![input("A", &a)],
                vec![exact("B", &want)],
            )
        }
        "listsum" => {
            let n = sz.listsum;
            let next = gen::linked_list(n, seed);
            let val = gen::int_array(n, -50, 50, s1);
            let want = baselines::list_sum(&next, &val);
            (
                format!("{n}"),
                programs::listsum_par(n, log2_ceil(n)),
                vec![input("NEXT", &next), input("VAL", &val)],
                vec![exact("SUM", &want)],
            )
        }
        other => unreachable!("no corpus kernel named {other}"),
    };
    Program {
        name: format!("{name}/{label}"),
        source,
        inputs,
        checks,
    }
}

/// Words per array of the streaming kernel: two arrays of 1.5 Mi words
/// are 12 MiB, three times chip1024's 4 MiB of shared cache, so every
/// pass streams from DRAM and evicts what it wrote.
pub const STREAM_WORDS: usize = 3 << 19;
/// Virtual threads of the streaming kernel: one per TCU of chip1024.
pub const STREAM_THREADS: usize = 1024;
/// Words between the elements the streaming kernel updates: one per
/// 32-byte cache line, so every access is a new line and the memory
/// system, not instruction issue, does most of the work.
pub const STREAM_STRIDE: usize = 8;

/// The streaming read-modify-write kernel: `A[i] = 3·A[i] + B[i]` for
/// every `STREAM_STRIDE`-th word. Thread `t` owns lines
/// `t, t + STREAM_THREADS, …`, so each updated word is written by exactly
/// one virtual thread; its stores become non-blocking stores under the
/// default options.
pub fn stream(words_per_array: usize, seed: u64) -> Program {
    let n = words_per_array;
    let (t, k) = (STREAM_THREADS, STREAM_STRIDE);
    let a = gen::int_array(n, -1000, 1000, seed);
    let b = gen::int_array(n, -1000, 1000, seed.wrapping_add(1));
    let mut want = a.clone();
    for i in (0..n).step_by(k) {
        want[i] = a[i].wrapping_mul(3).wrapping_add(b[i]);
    }
    let source = format!(
        "int A[{n}]; int B[{n}];
         void main() {{
             spawn(0, {t} - 1) {{
                 int i = $ * {k};
                 while (i < {n}) {{
                     A[i] = A[i] * 3 + B[i];
                     i = i + {step};
                 }}
             }}
         }}",
        step = t * k
    );
    Program {
        name: format!("stream/{n}"),
        source,
        inputs: vec![input("A", &a), input("B", &b)],
        checks: vec![exact("A", &want)],
    }
}

/// A generated fuzz program. Its checks are filled in by
/// [`functional_checks`] once a functional-mode reference run exists.
pub fn fuzz_program(spec: &fuzz::ProgramSpec, id: usize) -> Program {
    Program {
        name: format!("fuzz/{id}"),
        source: fuzz::render(spec),
        inputs: fuzz::inputs(spec)
            .iter()
            .map(|(g, v)| input(g, v))
            .collect(),
        checks: Vec::new(),
    }
}

/// Turn `fuzz::checks` into concrete expectations read from a
/// functional-mode reference run of the same executable.
pub fn functional_checks(
    spec: &fuzz::ProgramSpec,
    reference: &Machine,
    exe: &Executable,
) -> Result<Vec<Check>, String> {
    fuzz::checks(spec)
        .into_iter()
        .map(|c| {
            let read = |name: &str, n: usize| {
                reference
                    .read_symbol(exe, name, n)
                    .ok_or_else(|| format!("reference run has no global `{name}`"))
            };
            Ok(match c {
                FunctionalCheck::Prints => Check::Prints(reference.output.ints()),
                FunctionalCheck::Exact { name, words } => {
                    let want = read(&name, words)?;
                    Check::Exact { global: name, want }
                }
                FunctionalCheck::Multiset { name, words } => {
                    let mut want = read(&name, words)?;
                    want.sort_unstable();
                    Check::Multiset { global: name, want }
                }
            })
        })
        .collect()
}

/// Check a finished run; `Err` names the first divergence.
pub fn verify(checks: &[Check], m: &Machine, exe: &Executable) -> Result<(), String> {
    let read = |name: &str, n: usize| {
        m.read_symbol(exe, name, n)
            .ok_or_else(|| format!("no global `{name}`"))
    };
    for c in checks {
        match c {
            Check::Exact { global, want } => {
                let got = read(global, want.len())?;
                if let Some(k) = (0..want.len()).find(|&k| got[k] != want[k]) {
                    return Err(format!(
                        "`{global}[{k}]` = {}, want {}",
                        got[k] as i32, want[k] as i32
                    ));
                }
            }
            Check::Multiset { global, want } => {
                let mut got = read(global, want.len())?;
                got.sort_unstable();
                if &got != want {
                    return Err(format!("`{global}` multiset differs from the reference"));
                }
            }
            Check::Floats { global, want, tol } => {
                let got = read(global, want.len())?;
                for (k, (g, w)) in got.iter().map(|&b| f32::from_bits(b)).zip(want).enumerate() {
                    if (g - w).abs() > *tol {
                        return Err(format!("`{global}[{k}]` = {g}, want {w} (tol {tol})"));
                    }
                }
            }
            Check::Prints(want) => {
                let got = m.output.ints();
                if &got != want {
                    return Err(format!("printed {got:?}, want {want:?}"));
                }
            }
        }
    }
    Ok(())
}
