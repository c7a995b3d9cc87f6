//! Machine-speed calibration.
//!
//! The sandbox this benchmark is accepted on drifts, for seconds to a
//! minute at a time, between speeds up to 40 % apart (measured: identical
//! ingest rounds take a steady 0.27 s or a steady 0.37 s, and a fixed
//! piece of arithmetic 140 to 240 ms), so a whole run can fall into either
//! and no statistic over its rounds can tell: as the clock read them, ten
//! runs of `query_hot` spread by 26 % with the second five 21 % slower than
//! the first — more than the widest bound a metric may carry (calibrated,
//! the same runs spread by 8 %).
//! What does tell is a **reference kernel**: a fixed piece of bench-owned
//! work with the engine's instruction mix (tokenise XML, build a node
//! arena, encode nodes into 8 KiB pages, append the pages to a log), run a
//! few times before and after every round and set-up — never between the
//! operations of a round. Its time moves with the machine and with nothing
//! else — it calls no engine code and its input never changes — so the
//! end-to-end times of the CPU-bound workloads are reported multiplied by
//! `REFERENCE_NS / kernel time observed around them`: the time the work
//! would have taken on a machine on which the kernel takes `REFERENCE_NS`.
//! Every run also prints its times as the clock read them.
//!
//! `REFERENCE_NS` is about the kernel's time on the machine the seed
//! numbers were taken on, in its usual state, so that calibrated times
//! read like the clock's there. On another machine every calibrated time
//! is off by one constant factor, the same for both sides of any
//! comparison. Not calibrated: `scan_cold`, whose time is device sleep,
//! and everything a traced run reports (per-layer metrics carry no bound).

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// Nanoseconds one [`Calibrator::kernel`] pass takes on the reference
/// machine.
const REFERENCE_NS: f64 = 240_000.0;

const PAGE: usize = 8192;

struct Node {
    parent: u32,
    name: (u32, u32),
    text: (u32, u32),
    children: u32,
}

/// The kernel's working memory, kept between a thread's passes: a pass
/// that had to allocate would time the allocator and the kernel's page
/// faults, which do not move with the machine's speed. (A thread's first
/// pass does; the median of a stretch's samples is not moved by it.)
#[derive(Default)]
struct Scratch {
    nodes: Vec<Node>,
    open: Vec<u32>,
    names: Vec<(u32, u32)>,
    log: Vec<u8>,
    page: Vec<u8>,
}

pub struct Calibrator {
    /// The kernel's input: ≈230 KB of synthetic markup, the same in every
    /// run of every commit (own generator; nothing of the corpus crate).
    text: Vec<u8>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    pub fn new() -> Calibrator {
        const TAGS: [&str; 6] = ["act", "scene", "speech", "speaker", "line", "stage"];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut text = String::from("<play>");
        while text.len() < 230_000 {
            text.push_str("<act><scene>");
            for _ in 0..20 + next(20) {
                text.push_str("<speech><speaker>");
                text.push_str(TAGS[next(6) as usize]);
                text.push_str("</speaker>");
                for _ in 0..1 + next(7) {
                    text.push_str("<line>");
                    for _ in 0..5 + next(7) {
                        text.push_str(TAGS[next(6) as usize]);
                        text.push(' ');
                    }
                    text.push_str("</line>");
                }
                text.push_str("</speech>");
            }
            text.push_str("</scene></act>");
        }
        text.push_str("</play>");
        Calibrator {
            text: text.into_bytes(),
        }
    }

    /// One pass of the reference work; a checksum of what it built.
    fn kernel(&self) -> u64 {
        SCRATCH.with(|scratch| self.pass(&mut scratch.borrow_mut()))
    }

    fn pass(&self, scratch: &mut Scratch) -> u64 {
        let b = &self.text[..];
        let Scratch {
            nodes,
            open,
            names,
            log,
            page,
        } = scratch;
        nodes.clear();
        open.clear();
        names.clear();
        log.clear();
        page.clear();
        page.resize(PAGE, 0);
        let mut i = 0;
        while i < b.len() {
            if b[i] == b'<' {
                let mut j = i + 1;
                while b[j] != b'>' {
                    j += 1;
                }
                if b[i + 1] == b'/' {
                    open.pop();
                } else {
                    let parent = open.last().copied().unwrap_or(u32::MAX);
                    if let Some(p) = nodes.get_mut(parent as usize) {
                        p.children += 1;
                    }
                    open.push(nodes.len() as u32);
                    nodes.push(Node {
                        parent,
                        name: (i as u32 + 1, j as u32),
                        text: (0, 0),
                        children: 0,
                    });
                }
                i = j + 1;
            } else {
                let mut j = i;
                while j < b.len() && b[j] != b'<' {
                    j += 1;
                }
                if let Some(&top) = open.last() {
                    nodes[top as usize].text = (i as u32, j as u32);
                }
                i = j;
            }
        }
        let mut fill = 0;
        let mut sum = 0u64;
        for n in nodes.iter() {
            let name = &b[n.name.0 as usize..n.name.1 as usize];
            let known = names
                .iter()
                .position(|k| &b[k.0 as usize..k.1 as usize] == name);
            let id = known.unwrap_or_else(|| {
                names.push(n.name);
                names.len() - 1
            }) as u16;
            let text = &b[n.text.0 as usize..n.text.1 as usize];
            let need = 12 + text.len();
            if fill + need > PAGE {
                log.extend_from_slice(page);
                sum += page.iter().step_by(64).map(|&x| x as u64).sum::<u64>();
                fill = 0;
            }
            page[fill..fill + 2].copy_from_slice(&id.to_le_bytes());
            page[fill + 2..fill + 6].copy_from_slice(&n.parent.to_le_bytes());
            page[fill + 6..fill + 10].copy_from_slice(&n.children.to_le_bytes());
            page[fill + 10..fill + 12].copy_from_slice(&(text.len() as u16).to_le_bytes());
            page[fill + 12..fill + need].copy_from_slice(text);
            fill += need;
        }
        log.extend_from_slice(&page[..fill]);
        sum + log.len() as u64 + nodes.len() as u64
    }

    /// Times one kernel pass: nanoseconds.
    fn sample_ns(&self) -> f64 {
        let t = Instant::now();
        black_box(self.kernel());
        t.elapsed().as_nanos() as f64
    }
}

/// The factor that turns a time measured next to `kernel_samples_ns` into
/// reference-machine time. The median sample stands for the stretch: one
/// pre-empted pass must not count. 1 when nothing was sampled.
fn factor(kernel_samples_ns: &[f64]) -> f64 {
    if kernel_samples_ns.is_empty() {
        1.0
    } else {
        REFERENCE_NS / stats::median(kernel_samples_ns)
    }
}

/// Kernel passes on each side of a bracketed stretch.
const PASSES_PER_SIDE: usize = 5;

/// Kernel samples taken around stretches of measured work (a round; the
/// set-ups of a run): some when the bracket opens, some after every
/// stretch, none during one.
pub struct Bracket<'c> {
    cal: Option<&'c Calibrator>,
    ns: Vec<f64>,
}

impl<'c> Bracket<'c> {
    /// Samples the opening side. Without a calibrator nothing is ever
    /// sampled and the factor is 1.
    pub fn open(cal: Option<&'c Calibrator>) -> Bracket<'c> {
        let mut bracket = Bracket {
            cal,
            ns: Vec::new(),
        };
        bracket.sample();
        bracket
    }

    /// Samples the side after a stretch.
    pub fn sample(&mut self) {
        if let Some(cal) = self.cal {
            self.ns
                .extend((0..PASSES_PER_SIDE).map(|_| cal.sample_ns()));
        }
    }

    /// The factor of everything bracketed so far.
    pub fn factor(&self) -> f64 {
        factor(&self.ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_does_real_work() {
        let a = Calibrator::new();
        let b = Calibrator::new();
        assert_eq!(a.text, b.text, "the input never changes");
        assert!((230_000..240_000).contains(&a.text.len()));
        assert_eq!(a.kernel(), b.kernel());
        assert!(
            a.kernel() > a.text.len() as u64 / 2,
            "a log about the size of the text was built"
        );
        assert!(a.sample_ns() > 0.0);
    }

    #[test]
    fn factor_uses_the_median_sample() {
        assert_eq!(factor(&[]), 1.0);
        assert_eq!(factor(&[REFERENCE_NS]), 1.0);
        // A machine twice as slow halves every time measured on it; one
        // pre-empted sample changes nothing.
        let slow = [2.0 * REFERENCE_NS, 2.0 * REFERENCE_NS, 50.0 * REFERENCE_NS];
        assert_eq!(factor(&slow), 0.5);
        let mut none = Bracket::open(None);
        none.sample();
        assert_eq!(none.factor(), 1.0);
        let cal = Calibrator::new();
        let mut some = Bracket::open(Some(&cal));
        some.sample();
        assert_eq!(some.ns.len(), 2 * PASSES_PER_SIDE);
        assert!(some.factor() > 0.0);
    }
}
