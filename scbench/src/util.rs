//! Statistics, process probes and the span tracer shared by the workloads.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), which holds
/// the in-process server and the load generator alike.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A temporary directory under `.bench_out/` in the working directory,
/// removed when dropped.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        let dir = Path::new(".bench_out").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a temporary directory under .bench_out");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One recorded span: a call into a layer's public function, made by the
/// benchmark's own replay code.
struct Span {
    id: usize,
    parent: Option<usize>,
    /// The operation this span belongs to (one id per replayed request).
    op: u64,
    name: String,
    /// Nanoseconds since the tracer's epoch.
    start: u64,
    end: u64,
}

/// In-memory span recorder. When off, [`Tracer::span`] only runs the
/// closure, so the same replay code gives the untraced baseline.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// A tracer for a worker thread: same epoch, operation and parent as
    /// `self`'s innermost open span. Merge it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: self.op,
        }
    }

    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name: name.to_string(),
            start,
            end: start,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end = self.now();
        out
    }

    /// Renames the most recently closed span named `from` (a span whose
    /// class is known only after the call returns).
    pub fn rename_last(&mut self, from: &str, to: &str) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == from) {
            s.name = to.to_string();
        }
    }

    /// Merges a forked tracer's spans under this tracer's open span.
    pub fn absorb(&mut self, child: Tracer) {
        let base = self.spans.len();
        let parent = self.stack.last().copied();
        for mut s in child.spans {
            s.id += base;
            s.parent = s.parent.map(|p| p + base).or(parent);
            self.spans.push(s);
        }
    }

    /// Self time per span name in nanoseconds, with the number of spans:
    /// each span's duration minus the part of it its direct children
    /// cover.
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let kids = &mut children[s.id];
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let e = out.entry(s.name.clone()).or_default();
            e.0 += (s.end - s.start).saturating_sub(covered);
            e.1 += 1;
        }
        out
    }

    /// Summed duration of the top-level spans (one per replayed request).
    pub fn root_total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.op, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}
