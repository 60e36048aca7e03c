//! # imrdmd-serve
//!
//! Sharded multi-tenant serving daemon for the I-mrDMD suite — the
//! fleet-scale front end the ROADMAP's north star calls for. One
//! [`IMrDmd`](imrdmd::IMrDmd) shard per tenant (a rack, a cabinet row, a
//! machine partition) behind a small vendored HTTP/1.1 layer:
//!
//! * **Ingest**: `POST /v1/{tenant}/ingest` routes CSV or JSON-lines
//!   telemetry batches through the shard's ingest guard and
//!   `try_partial_fit`, sharing the process-wide `hpc_linalg::pool`
//!   worker budget across tenants.
//! * **Reads**: `health`, `spectrum`, `forecast`, `reconstruct`, and
//!   `status` per tenant, served straight from the shard's state as the
//!   same serde JSON the in-process APIs produce — responses are
//!   bitwise-comparable to an oracle model fed the same batches.
//! * **Durability**: each shard checkpoints into a shared directory
//!   under its own namespace (`ckpt-<tenant>-<steps>.ckpt`); on boot the
//!   daemon restores every shard it finds, and a torn checkpoint yields a
//!   `Corrupt` shard answering 503 — never a crashed daemon.
//! * **Observability**: `GET /metrics` renders the whole process
//!   catalogue (linalg kernels, core pipeline, `serve.*` request series)
//!   in the Prometheus text format.
//!
//! The crate is panic-free by construction (the workspace clippy gate
//! denies `unwrap`/`expect`/`panic` here): hostile input — oversized
//! bodies, truncated requests, slow-loris headers, bad tenants — maps to
//! typed 4xx/5xx responses.

#![warn(missing_docs)]

pub mod error;
pub mod gate;
pub mod http;
pub mod manager;
pub mod obs;
pub mod server;
pub mod shard;

pub use error::ServeError;
pub use gate::EngineGate;
pub use http::{HttpError, HttpLimits, Request, Response};
pub use manager::{lock_shard, IngestPermit, ManagerConfig, ShardCell, ShardManager};
pub use server::{ServeConfig, Server, ServerHandle};
pub use shard::{IngestReply, RecoveredShard, Shard, ShardSnapshot, ShardState, ShardStatus};
