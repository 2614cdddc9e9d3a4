//! A deterministic simulated network between FL clients and the
//! server: per-client latency, bandwidth, loss, and a straggler
//! cutoff, so rounds have a simulated wall-clock and partial
//! participation without any real sockets.

use std::fmt;
use std::str::FromStr;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::WireError;

/// A network condition, as a value. Spec grammar (round-tripping
/// through `Display` / `FromStr`):
///
/// * `ideal` — zero latency, infinite bandwidth, no loss (the
///   default; reproduces the in-process loop exactly),
/// * `sim:LAT,BW,DROP` — mean one-way latency `LAT` ms, bandwidth
///   `BW` Mbit/s, i.i.d. drop probability `DROP`,
/// * `sim:LAT,BW,DROP,DEADLINE` — additionally cuts off stragglers
///   whose delivery would arrive after `DEADLINE` ms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum NetSpec {
    /// Zero latency, infinite bandwidth, no loss.
    #[default]
    Ideal,
    /// Simulated latency/bandwidth/loss (and optional deadline).
    Sim {
        /// One-way latency in milliseconds.
        latency_ms: f64,
        /// Link bandwidth in Mbit/s.
        bandwidth_mbps: f64,
        /// Probability an upload is lost, in `[0, 1)`.
        drop_rate: f64,
        /// Straggler cutoff in milliseconds (`0` = wait forever).
        deadline_ms: f64,
    },
}

impl NetSpec {
    /// A lossy-network spec without a deadline.
    pub fn sim(latency_ms: f64, bandwidth_mbps: f64, drop_rate: f64) -> Result<Self, WireError> {
        NetSpec::validated(latency_ms, bandwidth_mbps, drop_rate, 0.0)
    }

    fn validated(
        latency_ms: f64,
        bandwidth_mbps: f64,
        drop_rate: f64,
        deadline_ms: f64,
    ) -> Result<Self, WireError> {
        if !latency_ms.is_finite() || latency_ms < 0.0 {
            return Err(WireError::Net(format!(
                "latency {latency_ms} must be ≥ 0 ms"
            )));
        }
        if !bandwidth_mbps.is_finite() || bandwidth_mbps <= 0.0 {
            return Err(WireError::Net(format!(
                "bandwidth {bandwidth_mbps} must be > 0 Mbit/s"
            )));
        }
        if !(0.0..1.0).contains(&drop_rate) {
            return Err(WireError::Net(format!(
                "drop rate {drop_rate} must be in [0, 1)"
            )));
        }
        if !deadline_ms.is_finite() || deadline_ms < 0.0 {
            return Err(WireError::Net(format!(
                "deadline {deadline_ms} must be ≥ 0 ms (0 = none)"
            )));
        }
        Ok(NetSpec::Sim {
            latency_ms,
            bandwidth_mbps,
            drop_rate,
            deadline_ms,
        })
    }

    /// Simulates one submission's fate in isolation. Pure in
    /// `(seed, round, submission)` — no cross-submission state — so
    /// [`NetSpec::deliver`] is independent of submission order.
    fn delivery(&self, seed: u64, round: u64, sub: &Submission) -> Delivery {
        let (status, arrival_ms) = match *self {
            NetSpec::Ideal => (DeliveryStatus::Delivered, 0.0),
            NetSpec::Sim {
                latency_ms,
                bandwidth_mbps,
                drop_rate,
                deadline_ms,
            } => {
                // Round-trip: broadcast down, update back up; two
                // latency legs plus transfer time for both payloads.
                let bits = (sub.bytes_down + sub.bytes_up) as f64 * 8.0;
                let transfer_ms = bits / (bandwidth_mbps * 1e6) * 1e3;
                let arrival = 2.0 * latency_ms + transfer_ms;
                let mut rng = StdRng::seed_from_u64(
                    seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (sub.client_id as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
                );
                if rng.gen::<f64>() < drop_rate {
                    (DeliveryStatus::Dropped, arrival)
                } else if deadline_ms > 0.0 && arrival > deadline_ms {
                    (DeliveryStatus::Straggler, arrival)
                } else {
                    (DeliveryStatus::Delivered, arrival)
                }
            }
        };
        Delivery {
            client_id: sub.client_id,
            status,
            arrival_ms,
        }
    }

    /// How long the server waits on a round with missing updates: its
    /// straggler cutoff, or zero when no deadline is configured (the
    /// model then idealizes the server as knowing the participation
    /// set, so losses add no wait).
    fn straggler_wait_ms(&self) -> f64 {
        match *self {
            NetSpec::Sim { deadline_ms, .. } if deadline_ms > 0.0 => deadline_ms,
            _ => 0.0,
        }
    }

    /// Simulates one round of deliveries. Deterministic: the outcome
    /// is a pure function of `(seed, round)` and the submissions — the
    /// same inputs replay the same drops and arrival times regardless
    /// of thread interleaving or submission evaluation order.
    pub fn deliver(&self, seed: u64, round: u64, submissions: &[Submission]) -> RoundTraffic {
        let mut deliveries = Vec::with_capacity(submissions.len());
        let mut bytes_up = 0u64;
        let mut bytes_down = 0u64;
        let mut round_ms = 0.0f64;
        let mut any_missing = false;
        for sub in submissions {
            bytes_down += sub.bytes_down as u64;
            bytes_up += sub.bytes_up as u64;
            let delivery = self.delivery(seed, round, sub);
            match delivery.status {
                DeliveryStatus::Delivered => round_ms = round_ms.max(delivery.arrival_ms),
                DeliveryStatus::Straggler | DeliveryStatus::Dropped => any_missing = true,
            }
            deliveries.push(delivery);
        }
        if any_missing {
            // The server cannot tell a lost update from a late one —
            // any missing client makes it wait out its full cutoff
            // before closing the round.
            round_ms = round_ms.max(self.straggler_wait_ms());
        }
        let delivered = deliveries
            .iter()
            .filter(|d| d.status == DeliveryStatus::Delivered)
            .count();
        RoundTraffic {
            delivered,
            dropped: deliveries.len() - delivered,
            bytes_up,
            bytes_down,
            round_ms,
            deliveries,
        }
    }
}

impl fmt::Display for NetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NetSpec::Ideal => f.write_str("ideal"),
            NetSpec::Sim {
                latency_ms,
                bandwidth_mbps,
                drop_rate,
                deadline_ms,
            } => {
                write!(f, "sim:{latency_ms},{bandwidth_mbps},{drop_rate}")?;
                if deadline_ms > 0.0 {
                    write!(f, ",{deadline_ms}")?;
                }
                Ok(())
            }
        }
    }
}

impl FromStr for NetSpec {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once(':') {
            None => match s {
                "ideal" => Ok(NetSpec::Ideal),
                other => Err(WireError::Net(format!(
                    "unknown net `{other}` (expected ideal or sim:LAT,BW,DROP[,DEADLINE])"
                ))),
            },
            Some(("sim", args)) => {
                let fields: Vec<&str> = args.split(',').collect();
                if fields.len() != 3 && fields.len() != 4 {
                    return Err(WireError::Net(format!(
                        "sim spec `{args}` needs LAT,BW,DROP[,DEADLINE]"
                    )));
                }
                let num = |what: &str, v: &str| -> Result<f64, WireError> {
                    v.trim()
                        .parse()
                        .map_err(|_| WireError::Net(format!("bad {what} `{v}` in `sim:` spec")))
                };
                NetSpec::validated(
                    num("latency", fields[0])?,
                    num("bandwidth", fields[1])?,
                    num("drop rate", fields[2])?,
                    fields
                        .get(3)
                        .map(|v| num("deadline", v))
                        .transpose()?
                        .unwrap_or(0.0),
                )
            }
            Some((other, _)) => Err(WireError::Net(format!(
                "unknown net `{other}` (expected ideal or sim:LAT,BW,DROP[,DEADLINE])"
            ))),
        }
    }
}

impl Serialize for NetSpec {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl Deserialize for NetSpec {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::Error::expected("net spec", value))?;
        s.parse()
            .map_err(|e: WireError| serde::Error::msg(e.to_string()))
    }
}

/// One client's traffic in a round: the broadcast it downloaded and
/// the encoded update it sent back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// The uploading client.
    pub client_id: usize,
    /// Encoded update size (uplink).
    pub bytes_up: usize,
    /// Broadcast model size (downlink).
    pub bytes_down: usize,
}

/// What happened to one submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryStatus {
    /// Arrived before the cutoff.
    Delivered,
    /// Lost in transit.
    Dropped,
    /// Arrived after the straggler cutoff; the server did not wait.
    Straggler,
}

/// One submission's simulated fate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// The uploading client.
    pub client_id: usize,
    /// Delivered, dropped, or straggler.
    pub status: DeliveryStatus,
    /// When the update would have completed arriving (ms into the
    /// round).
    pub arrival_ms: f64,
}

/// Aggregate traffic statistics of one simulated round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTraffic {
    /// Per-submission outcomes, in submission order.
    pub deliveries: Vec<Delivery>,
    /// Updates that arrived in time.
    pub delivered: usize,
    /// Updates lost or cut off.
    pub dropped: usize,
    /// Total uplink bytes sent (including lost updates).
    pub bytes_up: u64,
    /// Total downlink bytes broadcast.
    pub bytes_down: u64,
    /// Simulated round wall-clock: the last in-time arrival, or the
    /// straggler cutoff when the server had to wait it out.
    pub round_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subs(n: usize, bytes_up: usize) -> Vec<Submission> {
        (0..n)
            .map(|client_id| Submission {
                client_id,
                bytes_up,
                bytes_down: 1000,
            })
            .collect()
    }

    #[test]
    fn ideal_delivers_everything_at_zero_ms() {
        let t = NetSpec::Ideal.deliver(7, 0, &subs(5, 4000));
        assert_eq!(t.delivered, 5);
        assert_eq!(t.dropped, 0);
        assert_eq!(t.round_ms, 0.0);
        assert_eq!(t.bytes_up, 5 * 4000);
        assert_eq!(t.bytes_down, 5 * 1000);
    }

    #[test]
    fn deliveries_are_deterministic() {
        let spec: NetSpec = "sim:20,1,0.3".parse().unwrap();
        let a = spec.deliver(42, 3, &subs(64, 10_000));
        let b = spec.deliver(42, 3, &subs(64, 10_000));
        assert_eq!(a, b);
        let c = spec.deliver(42, 4, &subs(64, 10_000));
        assert_ne!(
            a.deliveries.iter().map(|d| d.status).collect::<Vec<_>>(),
            c.deliveries.iter().map(|d| d.status).collect::<Vec<_>>(),
            "different rounds should reshuffle drops"
        );
    }

    #[test]
    fn drop_rate_drops_roughly_that_fraction() {
        let spec: NetSpec = "sim:1,100,0.5".parse().unwrap();
        let t = spec.deliver(0, 0, &subs(400, 100));
        assert!(
            (120..=280).contains(&t.dropped),
            "dropped {} of 400 at p=0.5",
            t.dropped
        );
    }

    #[test]
    fn deadline_cuts_off_big_updates() {
        // 1 Mbit/s, 10 ms deadline: a 1 MB update takes ~8000 ms.
        let spec: NetSpec = "sim:1,1,0,10".parse().unwrap();
        let t = spec.deliver(0, 0, &subs(3, 1_000_000));
        assert_eq!(t.delivered, 0);
        assert_eq!(t.dropped, 3);
        assert_eq!(t.round_ms, 10.0);
        // Raise the deadline and they all make it.
        let spec: NetSpec = "sim:1,1,0,20000".parse().unwrap();
        let t = spec.deliver(0, 0, &subs(3, 1_000_000));
        assert_eq!(t.delivered, 3);
        assert!(t.round_ms > 1000.0);
    }

    #[test]
    fn lost_updates_also_make_the_server_wait_out_its_deadline() {
        // Fast arrivals (~2 ms) but p=0.5 loss and a 1000 ms cutoff:
        // the server cannot distinguish lost from late, so the round
        // lasts the full deadline whenever anyone is missing.
        let spec: NetSpec = "sim:1,100,0.5,1000".parse().unwrap();
        let t = spec.deliver(0, 0, &subs(16, 100));
        assert!(t.dropped > 0, "p=0.5 over 16 clients");
        assert_eq!(t.round_ms, 1000.0);
        // Without a cutoff the model idealizes: only real arrivals
        // count toward the round clock.
        let spec: NetSpec = "sim:1,100,0.5".parse().unwrap();
        let t = spec.deliver(0, 0, &subs(16, 100));
        assert!(t.round_ms < 10.0, "{}", t.round_ms);
    }

    #[test]
    fn arrival_time_scales_with_bytes_and_bandwidth() {
        let spec: NetSpec = "sim:5,8,0".parse().unwrap();
        // 8 Mbit/s = 1 byte/µs: 1000 bytes down + 1000 up = 2 ms + 10 ms latency.
        let t = spec.deliver(0, 0, &subs(1, 1000));
        assert!((t.round_ms - 12.0).abs() < 1e-9, "{}", t.round_ms);
    }

    #[test]
    fn deliver_matches_hand_computed_fates() {
        // 5 ms latency each way, 8 Mbit/s = 1 byte/µs, a 20 ms cutoff:
        // client 0 moves 2000 bytes (12 ms), client 1 5000 (15 ms) and
        // client 2 11000 (21 ms, past the cutoff).
        let sub = |client_id, bytes_down, bytes_up| Submission {
            client_id,
            bytes_up,
            bytes_down,
        };
        let submissions = [sub(0, 1000, 1000), sub(1, 2500, 2500), sub(2, 6000, 5000)];
        let close = |got: f64, want: f64| (got - want).abs() < 1e-9;
        let t = "sim:5,8,0,20"
            .parse::<NetSpec>()
            .unwrap()
            .deliver(42, 3, &submissions);
        let fates: Vec<_> = t
            .deliveries
            .iter()
            .map(|d| (d.client_id, d.status))
            .collect();
        use DeliveryStatus::{Delivered, Dropped, Straggler};
        assert_eq!(fates, [(0, Delivered), (1, Delivered), (2, Straggler)]);
        for (d, want) in t.deliveries.iter().zip([12.0, 15.0, 21.0]) {
            assert!(close(d.arrival_ms, want), "{d:?}");
        }
        assert_eq!((t.delivered, t.dropped), (2, 1));
        assert_eq!((t.bytes_down, t.bytes_up), (9500, 8500));
        // The last arrival is at 15 ms, but the straggler makes the
        // server wait out its 20 ms cutoff.
        assert!(close(t.round_ms, 20.0), "{}", t.round_ms);

        // A drop rate just under 1 loses all three (each survives with
        // probability 1e-9). With a cutoff the server waits it out;
        // without one, losses add no wait.
        for (raw, round_ms) in [
            ("sim:5,8,0.999999999,20", 20.0),
            ("sim:5,8,0.999999999", 0.0),
        ] {
            let t = raw.parse::<NetSpec>().unwrap().deliver(42, 3, &submissions);
            assert!(t.deliveries.iter().all(|d| d.status == Dropped), "{raw}");
            assert_eq!((t.delivered, t.dropped), (0, 3), "{raw}");
            assert!(close(t.round_ms, round_ms), "{raw}: {}", t.round_ms);
        }

        // Each fate depends on its own submission only: reversing the
        // submission order reverses the deliveries and nothing else.
        let spec: NetSpec = "sim:20,1,0.3,500".parse().unwrap();
        let forward = subs(64, 10_000);
        let backward: Vec<Submission> = forward.iter().rev().copied().collect();
        let (f, b) = (spec.deliver(7, 1, &forward), spec.deliver(7, 1, &backward));
        assert!(f.dropped > 0 && f.delivered > 0, "p=0.3 over 64 clients");
        assert!(f.deliveries.iter().eq(b.deliveries.iter().rev()));
        assert_eq!((f.delivered, f.round_ms), (b.delivered, b.round_ms));
    }

    #[test]
    fn specs_round_trip() {
        for spec in [
            NetSpec::Ideal,
            "sim:20,10,0.05".parse().unwrap(),
            "sim:5,1.5,0,250".parse().unwrap(),
        ] {
            assert_eq!(spec.to_string().parse::<NetSpec>().unwrap(), spec);
        }
        for bad in [
            "sim:1,0,0",    // zero bandwidth
            "sim:-1,1,0",   // negative latency
            "sim:1,1,1.5",  // drop rate out of range
            "sim:1,1",      // missing field
            "wifi",         // unknown family
            "sim:1,1,0,-5", // negative deadline
        ] {
            assert!(bad.parse::<NetSpec>().is_err(), "`{bad}` should not parse");
        }
    }
}
