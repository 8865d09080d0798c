//! # ace-engine — discrete-event simulation core
//!
//! Shared simulation machinery for the ACE reproduction: integer
//! [`SimTime`], the deterministic [`EventQueue`] every simulator runs on
//! (a stable radix queue: time ties pop in push order, and no event may
//! be pushed earlier than the last one popped), the deterministic fork-join
//! worker pool ([`pool`]) shared by the round pipeline and the
//! query-serving engine, the random distributions ([`rng`]) behind
//! the paper's workload and churn models, and the one stable fingerprint
//! fold ([`digest`]) behind every state digest and golden pin.
//!
//! Everything is seedable and integer-timed so that every experiment in
//! the repository is exactly reproducible from its configuration.
//!
//! # Examples
//!
//! A tiny simulation that schedules a message ping-pong:
//!
//! ```
//! use ace_engine::{EventQueue, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32), Pong(u32) }
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO, Ev::Ping(0));
//! let mut pongs = 0;
//! while let Some((now, ev)) = q.pop() {
//!     match ev {
//!         Ev::Ping(i) if i < 3 => q.push(now + 5, Ev::Pong(i)),
//!         Ev::Ping(_) => {}
//!         Ev::Pong(i) => { pongs += 1; q.push(now + 5, Ev::Ping(i + 1)); }
//!     }
//! }
//! assert_eq!(pongs, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod pool;
mod queue;
pub mod rng;
mod time;

pub use queue::EventQueue;
pub use time::SimTime;
