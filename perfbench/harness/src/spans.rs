//! In-memory span recorder for the traced run.
//!
//! Every call into a layer made by this benchmark can be wrapped in
//! [`span`]. With recording off (the default, and always for the runs
//! that produce end-to-end metrics) a span costs one thread-local read.
//! With recording on, each span keeps its name, start, end, parent,
//! and the repetition it belongs to; [`to_json`] renders them at exit.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are seconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
    pub rep: u32,
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        stack: Vec::new(),
        rep: 0,
    });
}

/// Turn recording on or off for the calling thread.
pub fn set_recording(on: bool) {
    REC.with(|r| r.borrow_mut().on = on);
}

/// Tag the spans opened from now on with repetition `rep`.
pub fn set_rep(rep: u32) {
    REC.with(|r| r.borrow_mut().rep = rep);
}

/// Run `f` inside a span called `name` (recorded only when on).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return None;
        }
        let id = r.spans.len();
        let start = r.origin.elapsed().as_secs_f64();
        let (parent, rep) = (r.stack.last().copied(), r.rep);
        r.spans.push(Span {
            name,
            parent,
            start,
            end: start,
            rep,
        });
        r.stack.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.spans[id].end = r.origin.elapsed().as_secs_f64();
            r.stack.pop();
        });
    }
    out
}

/// Every span recorded so far on this thread.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Duration of `spans[id]` minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (k, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(k);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(f64, f64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// The root span above `id`.
pub fn root_of(spans: &[Span], mut id: usize) -> usize {
    while let Some(p) = spans[id].parent {
        id = p;
    }
    id
}

/// Structural problems of a span list: a child outside its parent,
/// overlapping siblings, or self times that do not sum to the root's
/// duration within `eps` seconds per span.
pub fn check_nesting(spans: &[Span], eps: f64) -> Vec<String> {
    let mut bad = Vec::new();
    for (k, s) in spans.iter().enumerate() {
        if s.end < s.start {
            bad.push(format!("span {k} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let ps = &spans[p];
            if p >= k || s.start < ps.start || s.end > ps.end {
                bad.push(format!(
                    "span {k} ({}) is not inside its parent {p} ({})",
                    s.name, ps.name
                ));
            }
        }
    }
    let mut last_end: Vec<Option<f64>> = vec![None; spans.len() + 1];
    for s in spans {
        let slot = s.parent.unwrap_or(spans.len());
        if let Some(prev) = last_end[slot] {
            if s.start < prev {
                bad.push(format!("span {} overlaps its previous sibling", s.name));
            }
        }
        last_end[slot] = Some(s.end);
    }
    let selfs = self_times(spans);
    let mut sum = vec![0.0; spans.len()];
    let mut count = vec![0usize; spans.len()];
    for (k, st) in selfs.iter().enumerate() {
        let r = root_of(spans, k);
        sum[r] += st;
        count[r] += 1;
    }
    for (k, s) in spans.iter().enumerate() {
        if s.parent.is_none() {
            let dur = s.end - s.start;
            if (sum[k] - dur).abs() > eps * count[k] as f64 {
                bad.push(format!(
                    "self times under root {} sum to {:.9} s, root lasts {:.9} s",
                    s.name, sum[k], dur
                ));
            }
        }
    }
    bad
}

/// The span list as a JSON document.
pub fn to_json(spans: &[Span], workload: &str, seed: u64) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"kind\":\"perfbench-spans\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    );
    for (k, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{}{{\"id\":{k},\"parent\":{parent},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"workload\":\"{workload}\",\"rep\":{}}}",
            if k == 0 { "" } else { "," },
            s.name,
            s.start,
            s.end,
            s.rep
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let s = vec![
            sp("root", None, 0.0, 10.0),
            sp("a", Some(0), 1.0, 3.0),
            sp("b", Some(0), 4.0, 8.0),
            sp("c", Some(2), 5.0, 6.0),
        ];
        let st = self_times(&s);
        assert_eq!(st, vec![4.0, 2.0, 3.0, 1.0]);
        assert!(check_nesting(&s, 1e-12).is_empty());
    }

    #[test]
    fn broken_nesting_is_reported() {
        let s = vec![sp("root", None, 0.0, 1.0), sp("a", Some(0), 0.5, 2.0)];
        assert!(!check_nesting(&s, 1e-12).is_empty());
        let s = vec![
            sp("root", None, 0.0, 4.0),
            sp("a", Some(0), 0.0, 2.0),
            sp("b", Some(0), 1.0, 3.0),
        ];
        assert!(!check_nesting(&s, 1e-12).is_empty());
    }

    #[test]
    fn recorder_nests() {
        set_recording(true);
        span("outer", || span("inner", || std::hint::black_box(1 + 1)));
        set_recording(false);
        let s = take();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(check_nesting(&s, 1e-9).is_empty());
    }
}
