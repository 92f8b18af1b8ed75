//! Batching and admission-control policy for the central dispatch queue.
//!
//! The queue is a single bounded FIFO shared by every chip in the fleet
//! (Albireo has no intra-chip batching — one inference occupies the whole
//! chip — so a "batch" is a *micro-batch*: consecutive same-network
//! requests that share one weight-programming pass, see
//! [`crate::fleet::ServiceCost`]). Batches are therefore always
//! single-network; the queue head defines the network and the batch takes
//! the earliest queued requests of that network, preserving FIFO order
//! (head-of-line semantics are intentional and documented — a released
//! chip never skips the oldest waiting request's network).

use std::fmt;

/// When the dispatcher may form a batch from the queue head.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchPolicy {
    /// Dispatch a single request as soon as a chip is free.
    Immediate,
    /// Wait until `size` same-network requests are queued (or the arrival
    /// stream has ended, which flushes partial batches).
    SizeN {
        /// Target batch size (≥ 1).
        size: usize,
    },
    /// Dispatch when `max_size` same-network requests are queued **or**
    /// the queue head has waited `max_wait_s`, whichever comes first.
    Deadline {
        /// Longest the queue head may wait before a partial batch is
        /// forced out, s.
        max_wait_s: f64,
        /// Upper bound on batch size.
        max_size: usize,
    },
}

impl BatchPolicy {
    /// A short stable label for reports and CSV keys, e.g. `size4`,
    /// `deadline100us`.
    pub fn label(&self) -> String {
        match self {
            BatchPolicy::Immediate => "immediate".to_string(),
            BatchPolicy::SizeN { size } => format!("size{size}"),
            BatchPolicy::Deadline {
                max_wait_s,
                max_size,
            } => format!("deadline{:.0}us_max{max_size}", max_wait_s * 1e6),
        }
    }

    /// Parses a policy spec: `immediate`, `size:<N>`,
    /// `deadline:<USEC>[:<MAX>]` (deadline in microseconds, default max
    /// batch 8), or the canonical `deadline_s:<SECONDS>:<MAX>` that
    /// [`Display`](fmt::Display) renders. Deadlines must be finite and
    /// positive.
    pub fn parse(spec: &str) -> Result<BatchPolicy, String> {
        let spec = spec.trim();
        if spec.eq_ignore_ascii_case("immediate") {
            return Ok(BatchPolicy::Immediate);
        }
        if let Some(n) = spec
            .strip_prefix("size:")
            .or_else(|| spec.strip_prefix("size"))
        {
            let size: usize = n
                .parse()
                .map_err(|_| format!("bad batch size in policy `{spec}`"))?;
            if size == 0 {
                return Err("batch size must be at least 1".to_string());
            }
            return Ok(BatchPolicy::SizeN { size });
        }
        // The canonical form stores seconds and needs an explicit max;
        // the microsecond form defaults the max batch to 8.
        let (rest, micros) = if let Some(rest) = spec.strip_prefix("deadline_s:") {
            (rest, false)
        } else if let Some(rest) = spec.strip_prefix("deadline:") {
            (rest, true)
        } else {
            return Err(format!(
                "unknown policy `{spec}` (try: immediate, size:<N>, deadline:<USEC>[:<MAX>], \
                 deadline_s:<SECONDS>:<MAX>)"
            ));
        };
        let mut parts = rest.split(':');
        let wait: f64 = parts
            .next()
            .unwrap_or("")
            .parse()
            .map_err(|_| format!("bad deadline in policy `{spec}`"))?;
        if !(wait.is_finite() && wait > 0.0) {
            return Err(format!(
                "deadline must be finite and positive in policy `{spec}`"
            ));
        }
        let max_size: usize = match parts.next() {
            Some(m) => m
                .parse()
                .map_err(|_| format!("bad max batch size in policy `{spec}`"))?,
            None if micros => 8,
            None => return Err(format!("policy `{spec}` needs deadline_s:<SECONDS>:<MAX>")),
        };
        if max_size == 0 {
            return Err("max batch size must be at least 1".to_string());
        }
        if parts.next().is_some() {
            return Err(format!("too many fields in policy `{spec}`"));
        }
        // Seconds are stored as given so `deadline_s` round-trips bit-exactly;
        // the microsecond form divides, which is not an exact inverse.
        Ok(BatchPolicy::Deadline {
            max_wait_s: if micros { wait / 1e6 } else { wait },
            max_size,
        })
    }

    /// The largest batch this policy ever dispatches.
    pub fn max_batch(&self) -> usize {
        match self {
            BatchPolicy::Immediate => 1,
            BatchPolicy::SizeN { size } => *size,
            BatchPolicy::Deadline { max_size, .. } => *max_size,
        }
    }
}

impl fmt::Display for BatchPolicy {
    /// The canonical spec string: `immediate`, `size:<N>`, or
    /// `deadline_s:<SECONDS>:<MAX>` (seconds via `{}` so the float
    /// round-trips bit-exactly); [`BatchPolicy::parse`] inverts it exactly.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchPolicy::Immediate => write!(f, "immediate"),
            BatchPolicy::SizeN { size } => write!(f, "size:{size}"),
            BatchPolicy::Deadline {
                max_wait_s,
                max_size,
            } => write!(f, "deadline_s:{max_wait_s}:{max_size}"),
        }
    }
}

/// Admission control for the shared queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Requests the queue holds before arrivals are shed. `usize::MAX`
    /// disables shedding.
    pub queue_capacity: usize,
}

impl Default for AdmissionControl {
    /// A bounded queue of 64 requests — deep enough to ride a burst,
    /// shallow enough that shed rate (not unbounded queueing delay)
    /// absorbs sustained overload.
    fn default() -> AdmissionControl {
        AdmissionControl { queue_capacity: 64 }
    }
}

impl AdmissionControl {
    /// An unbounded queue (no shedding).
    pub fn unbounded() -> AdmissionControl {
        AdmissionControl {
            queue_capacity: usize::MAX,
        }
    }

    /// A bounded queue.
    pub fn bounded(queue_capacity: usize) -> AdmissionControl {
        assert!(queue_capacity > 0, "queue capacity must be at least 1");
        AdmissionControl { queue_capacity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(
            BatchPolicy::parse("immediate").unwrap(),
            BatchPolicy::Immediate
        );
        assert_eq!(
            BatchPolicy::parse("size:4").unwrap(),
            BatchPolicy::SizeN { size: 4 }
        );
        let d = BatchPolicy::parse("deadline:100:6").unwrap();
        assert_eq!(
            d,
            BatchPolicy::Deadline {
                max_wait_s: 100e-6,
                max_size: 6
            }
        );
        assert_eq!(d.label(), "deadline100us_max6");
        assert_eq!(BatchPolicy::parse("deadline:50").unwrap().max_batch(), 8);
        assert!(BatchPolicy::parse("size:0").is_err());
        assert!(BatchPolicy::parse("deadline:0").is_err());
        assert!(BatchPolicy::parse("fifo").is_err());
        // Non-finite deadlines are rejected in both units.
        for bad in [
            "deadline:nan",
            "deadline:inf",
            "deadline_s:inf:4",
            "deadline_s:nan:4",
        ] {
            assert!(
                BatchPolicy::parse(bad).is_err(),
                "`{bad}` should be rejected"
            );
        }
        // The seconds form needs an explicit max and no trailing fields.
        assert!(BatchPolicy::parse("deadline_s:0.001").is_err());
        assert!(BatchPolicy::parse("deadline_s:0.001:4:2").is_err());
    }

    #[test]
    fn deadline_seconds_form_is_exact_where_microseconds_are_not() {
        // The canonical form stores seconds directly: whatever f64 the
        // policy carries is reproduced bit-exactly by parse(display).
        let policy = BatchPolicy::Deadline {
            max_wait_s: 0.000123456789,
            max_size: 6,
        };
        assert_eq!(policy.to_string(), "deadline_s:0.000123456789:6");
        assert_eq!(BatchPolicy::parse(&policy.to_string()).unwrap(), policy);
        for p in [BatchPolicy::Immediate, BatchPolicy::SizeN { size: 4 }] {
            assert_eq!(BatchPolicy::parse(&p.to_string()).unwrap(), p);
        }
        // The microsecond grammar still parses.
        assert_eq!(
            BatchPolicy::parse("deadline:100:6").unwrap(),
            BatchPolicy::Deadline {
                max_wait_s: 100.0 / 1e6,
                max_size: 6
            }
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BatchPolicy::Immediate.label(), "immediate");
        assert_eq!(BatchPolicy::SizeN { size: 8 }.label(), "size8");
    }

    #[test]
    fn admission_defaults() {
        assert_eq!(AdmissionControl::default().queue_capacity, 64);
        assert_eq!(AdmissionControl::unbounded().queue_capacity, usize::MAX);
        assert_eq!(AdmissionControl::bounded(8).queue_capacity, 8);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        AdmissionControl::bounded(0);
    }
}
