//! Layer probes driven from outside the program: single-thread kernel
//! rates, frame codec throughput, and point-to-point latency and
//! bandwidth between two `Endpoint`s over each transport.

use crate::stats::median;
use flexdist_dist::TileAssignment;
use flexdist_factor::net::{
    build_fabric, build_socket_fabric, cleanup_socket_dir, decode, encode, frame_len, Endpoint,
    FullMesh, MsgClass, NetError, SocketConfig, TileMsg,
};
use flexdist_kernels::{
    gemm_nn, getrf_nopiv, potrf, syrk_ln, trsm_right_lower_trans, trsm_right_upper, Kernel, Tile,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Single-thread rates of the five tile kernels at one tile size, GF/s.
pub struct KernelRates {
    pub gemm: f64,
    pub trsm: f64,
    pub syrk: f64,
    pub potrf: f64,
    pub getrf: f64,
}

/// A symmetric, strictly diagonally dominant tile: SPD, and safe for
/// LU without pivoting.
fn dominant(nb: usize) -> Tile {
    Tile::from_fn(nb, |r, c| {
        let off = 1.0 / (1.0 + r.abs_diff(c) as f64);
        if r == c {
            off + nb as f64
        } else {
            off
        }
    })
}

/// Median GF/s of `kernel` over batches of calls. Each call gets a
/// fresh copy of `input`, made outside the timed region.
fn rate(
    kernel: Kernel,
    nb: usize,
    input: &Tile,
    budget: Duration,
    mut call: impl FnMut(&mut Tile),
) -> f64 {
    let flops = kernel.flops(nb);
    // Batches of about a millisecond of work at 4 GF/s.
    let batch = ((4e6 / flops).ceil() as usize).max(1);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 200) {
        let mut copies = vec![input.clone(); batch];
        let t0 = Instant::now();
        for c in &mut copies {
            call(c);
        }
        let dt = t0.elapsed().as_secs_f64();
        black_box(&copies);
        samples.push(batch as f64 * flops / dt / 1e9);
    }
    median(&samples)
}

/// Probe every kernel at tile size `nb` for about `budget` each. The
/// TRSM measured is the one `chol` selects (right, lower, transposed)
/// or LU's (right, upper).
pub fn kernels(nb: usize, chol: bool, budget: Duration) -> KernelRates {
    let a = dominant(nb);
    let b = Tile::random(nb, 7);
    let gemm = rate(Kernel::Gemm, nb, &b, budget, |c| {
        gemm_nn(-1.0, a.as_slice(), b.as_slice(), 1.0, c.as_mut_slice(), nb);
    });
    let mut factored = a.clone();
    if chol {
        potrf(factored.as_mut_slice(), nb).expect("dominant tile is SPD");
    } else {
        getrf_nopiv(factored.as_mut_slice(), nb).expect("dominant tile has no zero pivot");
    }
    let trsm = rate(Kernel::Trsm, nb, &b, budget, |x| {
        if chol {
            trsm_right_lower_trans(factored.as_slice(), x.as_mut_slice(), nb);
        } else {
            trsm_right_upper(factored.as_slice(), x.as_mut_slice(), nb);
        }
    });
    let syrk = rate(Kernel::Syrk, nb, &a, budget, |c| {
        syrk_ln(-1.0, b.as_slice(), 1.0, c.as_mut_slice(), nb);
    });
    let potrf_rate = rate(Kernel::Potrf, nb, &a, budget, |x| {
        black_box(potrf(x.as_mut_slice(), nb)).expect("dominant tile is SPD");
    });
    let getrf = rate(Kernel::Getrf, nb, &a, budget, |x| {
        black_box(getrf_nopiv(x.as_mut_slice(), nb)).expect("dominant tile has no zero pivot");
    });
    KernelRates {
        gemm,
        trsm,
        syrk,
        potrf: potrf_rate,
        getrf,
    }
}

/// Median encode and decode throughput of one tile frame, GB/s.
pub fn codec(nb: usize, budget: Duration) -> (f64, f64) {
    let msg = TileMsg {
        class: MsgClass::Trailing,
        src: 0,
        i: 1,
        j: 0,
        epoch: 0,
        tile: Tile::random(nb, 11),
    };
    let len = frame_len(nb).expect("probe tile size is valid") as f64;
    let batch = ((1e6 / len).ceil() as usize).max(1);
    let frame = encode(&msg).expect("probe tile size is valid");
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let start = Instant::now();
    while enc.len() < 5 || (start.elapsed() < budget && enc.len() < 200) {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(encode(black_box(&msg)).expect("probe tile size is valid"));
        }
        enc.push(batch as f64 * len / t0.elapsed().as_secs_f64() / 1e9);
        let t0 = Instant::now();
        for _ in 0..batch {
            let back = decode(black_box(&frame)).expect("own frame decodes");
            black_box(&back);
        }
        dec.push(batch as f64 * len / t0.elapsed().as_secs_f64() / 1e9);
    }
    (median(&enc), median(&dec))
}

/// Which fabric a point-to-point probe runs over.
pub enum Wire<'a> {
    Channel,
    Uds(&'a Path),
}

/// Two endpoints: rank 0 owns column 0 of a 2 × 2 tile grid, rank 1
/// owns column 1, so each may send its own tiles to the other.
fn pair(wire: &Wire<'_>) -> Result<Vec<Endpoint>, NetError> {
    let a = Arc::new(TileAssignment::from_owner_fn(2, 2, |_, j| j as u32));
    match wire {
        Wire::Channel => Ok(build_fabric(&a, &FullMesh)),
        Wire::Uds(dir) => {
            let cfg = SocketConfig::uds(*dir);
            let out = build_socket_fabric(2, &FullMesh, &cfg)?
                .into_iter()
                .enumerate()
                .map(|(rank, tr)| {
                    Endpoint::from_transport(
                        rank as u32,
                        Arc::clone(&a),
                        &FullMesh,
                        Box::new(tr),
                        None,
                    )
                })
                .collect();
            Ok(out)
        }
    }
}

/// Point-to-point results of one fabric.
pub struct P2p {
    /// Median one-way latency of an 8-byte tile (half a round trip), µs.
    pub latency_us: f64,
    /// Median one-way streaming bandwidth of `stream_nb` tiles, GB/s.
    pub stream_gbps: f64,
}

/// Ping-pong `rounds` small frames in `samples` batches, then stream
/// `frames` tiles of `stream_nb` one way, in `samples` batches.
pub fn p2p(wire: &Wire<'_>, stream_nb: usize) -> Result<P2p, String> {
    const SAMPLES: usize = 7;
    const ROUNDS: usize = 200;
    const FRAMES: usize = 64;
    let eps = pair(wire).map_err(|e| e.to_string())?;
    let mut eps = eps.into_iter();
    let (mut e0, mut e1) = (
        eps.next().expect("pair has rank 0"),
        eps.next().expect("pair has rank 1"),
    );
    let small = Tile::random(1, 3);
    let big = Tile::random(stream_nb, 5);
    let result = std::thread::scope(|s| -> Result<P2p, NetError> {
        let echo_tile = small.clone();
        let echo = s.spawn(move || -> Result<(), NetError> {
            let small = echo_tile;
            for _ in 0..SAMPLES {
                for _ in 0..ROUNDS {
                    e1.recv()?;
                    e1.send_tile(0, MsgClass::Panel, 0, 1, 0, &small)?;
                }
            }
            for _ in 0..SAMPLES {
                for _ in 0..FRAMES {
                    e1.recv()?;
                }
                e1.send_tile(0, MsgClass::Panel, 0, 1, 0, &small)?;
            }
            e1.finish_and_drain().map(|_| ())
        });
        // Each rank moves into its closure, so an error drops it, which
        // closes the fabric and releases the other rank.
        let run = (move || -> Result<(Vec<f64>, Vec<f64>), NetError> {
            let mut lat = Vec::new();
            let mut bw = Vec::new();
            for _ in 0..SAMPLES {
                let t0 = Instant::now();
                for _ in 0..ROUNDS {
                    e0.send_tile(1, MsgClass::Panel, 0, 0, 0, &small)?;
                    e0.recv()?;
                }
                lat.push(t0.elapsed().as_secs_f64() / (2 * ROUNDS) as f64 * 1e6);
            }
            let len = frame_len(stream_nb)? as f64;
            for _ in 0..SAMPLES {
                let t0 = Instant::now();
                for _ in 0..FRAMES {
                    e0.send_tile(1, MsgClass::Trailing, 1, 0, 0, &big)?;
                }
                e0.recv()?;
                bw.push(FRAMES as f64 * len / t0.elapsed().as_secs_f64() / 1e9);
            }
            e0.finish_and_drain()?;
            Ok((lat, bw))
        })();
        let echoed = echo.join().expect("echo thread does not panic");
        let (lat, bw) = run?;
        echoed?;
        Ok(P2p {
            latency_us: median(&lat),
            stream_gbps: median(&bw),
        })
    });
    if let Wire::Uds(dir) = wire {
        cleanup_socket_dir(dir, 2);
    }
    result.map_err(|e| e.to_string())
}
