//! The correctness gate. Runs outside every timed region; each failed
//! check is recorded with a one-line reason.

use flexdist_dist::CommBreakdown;
use flexdist_kernels::TiledMatrix;

/// The residual bound `tests/end_to_end.rs` holds every factorization to.
pub const RESIDUAL_BOUND: f64 = 1e-11;

#[derive(Default)]
pub struct Gate {
    pub failures: Vec<String>,
}

impl Gate {
    /// Record a failure unless `ok`. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failures.push(what());
        }
        ok
    }

    /// Measured goodput equals the closed-form volume, class by class.
    pub fn wire(&mut self, what: &str, measured: &CommBreakdown, expected: &CommBreakdown) -> bool {
        self.check(measured == expected, || {
            format!(
                "{what}: wire panel {} trailing {}, closed form panel {} trailing {}",
                measured.panel, measured.trailing, expected.panel, expected.trailing
            )
        })
    }

    /// Every element of `got` has the same bits as in `reference`.
    pub fn bitwise(&mut self, what: &str, got: &TiledMatrix, reference: &TiledMatrix) -> bool {
        let same = got.tiles() == reference.tiles() && got.nb() == reference.nb() && {
            let t = got.tiles();
            (0..t * t).all(|k| {
                let (a, b) = (got.tile(k / t, k % t), reference.tile(k / t, k % t));
                a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
            })
        };
        self.check(same, || {
            format!("{what}: result differs bitwise from the reference")
        })
    }

    /// A residual below [`RESIDUAL_BOUND`].
    pub fn residual(&mut self, what: &str, r: f64) -> bool {
        self.check(r < RESIDUAL_BOUND, || {
            format!("{what}: residual {r:e} not below {RESIDUAL_BOUND:e}")
        })
    }
}

/// Prove the gate can fail: a copy of `result` with one element's last
/// bit flipped must fail [`Gate::bitwise`], and a volume off by one must
/// fail [`Gate::wire`]. Returns what the gate missed.
pub fn self_test(result: &TiledMatrix, volume: &CommBreakdown) -> Vec<String> {
    let mut missed = Vec::new();
    let mut flipped = result.clone();
    let n = flipped.dim();
    let (gi, gj) = (n / 2, n / 3);
    let v = flipped.get_element(gi, gj);
    flipped.set_element(gi, gj, f64::from_bits(v.to_bits() ^ 1));
    if Gate::default().bitwise("self-test", &flipped, result) {
        missed.push("a flipped element passed the bitwise check".to_string());
    }
    let mut off = *volume;
    off.trailing += 1;
    if Gate::default().wire("self-test", &off, volume) {
        missed.push("a volume off by one passed the wire check".to_string());
    }
    missed
}
