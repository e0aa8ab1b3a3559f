//! The repo benchmark. See `README.md` in this directory.

#![warn(missing_docs)]

pub mod compare;
pub mod hist;
pub mod host;
pub mod kv;
pub mod probes;
pub mod result;
pub mod run;
pub mod sim;
pub mod spec;
pub mod trace;

/// Errors inside the harness are messages for the operator.
pub type Res<T> = Result<T, String>;
