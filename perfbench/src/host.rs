//! Host-side measurement: the host fingerprint, the drift probe, peak RSS,
//! and the benchmark's own span recorder.

use std::hint::black_box;
use std::time::Instant;

/// Median ms of a fixed CPU + memory loop (dependent loads and stores over
/// an 8 MiB table). It is recorded next to every result so that host drift
/// can be told apart from a regression; no metric is divided by it.
pub fn calib_ms() -> f64 {
    const WORDS: usize = 1 << 20;
    let mut table: Vec<u64> = (0..WORDS as u64).collect();
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
            let mut acc: u64 = 0;
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = (x ^ acc) as usize & (WORDS - 1);
                acc = acc.wrapping_add(table[i]);
                table[i] = acc;
            }
            black_box(acc);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut samples)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Reset this process's peak resident set (VmHWM) to its current resident
/// set, so that memory freed before the call (the drift probe's table)
/// does not count towards [`peak_rss_mb`].
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Median of `xs` (sorted in place); NaN for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (sorted in place).
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// One host span: a call the benchmark made into a layer.
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    op: Option<u64>,
}

/// An open span; close it with [`Spans::end`].
pub struct Span {
    idx: Option<u32>,
    start: Instant,
}

/// In-memory span recorder. When off it only times; when on it also keeps
/// every span (name, start, end, parent, op id) for [`Spans::write`].
pub struct Spans {
    on: bool,
    origin: Instant,
    recs: Vec<SpanRec>,
    stack: Vec<u32>,
    op: Option<u64>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
            op: None,
        }
    }

    /// Spans begun from now on carry op id `op` (`None` outside ops).
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> Span {
        let start = Instant::now();
        let idx = self.on.then(|| {
            let idx = self.recs.len() as u32;
            self.recs.push(SpanRec {
                name,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                op: self.op,
            });
            self.stack.push(idx);
            idx
        });
        Span { idx, start }
    }

    /// Close `span`; returns its duration in ns.
    pub fn end(&mut self, span: Span) -> u64 {
        let end = Instant::now();
        if let Some(idx) = span.idx {
            self.recs[idx as usize].end_ns = end.duration_since(self.origin).as_nanos() as u64;
            self.stack.pop();
        }
        end.duration_since(span.start).as_nanos() as u64
    }

    /// Forget the spans left open by a call that panicked, so later spans
    /// do not name them as parents.
    pub fn unwind(&mut self) {
        self.stack.clear();
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, r) in self.recs.iter().enumerate() {
            let or_null = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                r.name,
                r.start_ns,
                r.end_ns,
                or_null(r.parent.map(u64::from)),
                or_null(r.op)
            )?;
        }
        w.flush()
    }
}
