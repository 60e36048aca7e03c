//! Typed serving errors, each with a definite HTTP status.

use imrdmd::CoreError;

use crate::http::HttpError;

/// Why a serving operation failed. The daemon maps every variant to a
/// JSON error envelope with the status from [`ServeError::status`];
/// nothing on the serving path panics.
#[derive(Debug)]
pub enum ServeError {
    /// The tenant id fails the `[A-Za-z0-9_-]{1,64}` rule (which also
    /// keeps checkpoint file names path-safe).
    InvalidTenant(String),
    /// No shard exists for this tenant (reads only; ingest creates).
    UnknownTenant(String),
    /// Creating the shard would exceed the configured tenant cap.
    TenantLimit(usize),
    /// The fleet's in-flight ingest budget is exhausted; the request was
    /// shed before touching any shard. Clients should back off and retry.
    Overloaded {
        /// Ingests in flight when the request arrived.
        inflight: usize,
        /// The configured budget.
        limit: usize,
    },
    /// The shard refused traffic: its checkpoint failed to restore.
    ShardCorrupt {
        /// Tenant whose shard is down.
        tenant: String,
        /// Restore failure, verbatim.
        cause: String,
    },
    /// The request body failed to parse as CSV or JSON-lines telemetry.
    BadBody(String),
    /// A CSV batch's first-step header disagrees with the shard's clock
    /// (duplicate or out-of-order delivery).
    OutOfOrder {
        /// Step the shard expects next.
        expected: usize,
        /// Step the batch claimed.
        got: usize,
    },
    /// A query parameter is missing or unparsable.
    BadQuery(String),
    /// The decomposition rejected the batch (shape mismatch, non-finite
    /// values under the `reject` gap policy, numerical failure).
    Core(CoreError),
    /// Transport-level failure while reading the request.
    Http(HttpError),
}

impl ServeError {
    /// The HTTP status this error is answered with.
    pub fn status(&self) -> u16 {
        match self {
            ServeError::InvalidTenant(_) | ServeError::BadBody(_) | ServeError::BadQuery(_) => 400,
            ServeError::UnknownTenant(_) => 404,
            ServeError::TenantLimit(_) => 429,
            ServeError::Overloaded { .. } => 503,
            ServeError::ShardCorrupt { .. } => 503,
            ServeError::OutOfOrder { .. } => 409,
            ServeError::Core(e) => match e {
                CoreError::TooFewSnapshots { .. } => 400,
                CoreError::ShapeMismatch { .. } => 409,
                CoreError::NonFinite { .. } | CoreError::InvalidConfig { .. } => 422,
                _ => 500,
            },
            ServeError::Http(e) => e.status(),
        }
    }

    /// Seconds the client should wait before retrying, when this error
    /// carries a `Retry-After` contract: load sheds retry quickly (the
    /// rounds in flight drain in well under a second), the tenant cap
    /// retries slower (slots only free when the operator prunes).
    pub fn retry_after(&self) -> Option<u64> {
        match self {
            ServeError::Overloaded { .. } => Some(1),
            ServeError::TenantLimit(_) => Some(5),
            _ => None,
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidTenant(t) => {
                write!(f, "invalid tenant `{t}`: need 1-64 chars of [A-Za-z0-9_-]")
            }
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant `{t}`"),
            ServeError::TenantLimit(n) => write!(f, "tenant limit of {n} reached"),
            ServeError::Overloaded { inflight, limit } => write!(
                f,
                "fleet overloaded: {inflight} ingests in flight (budget {limit})"
            ),
            ServeError::ShardCorrupt { tenant, cause } => {
                write!(f, "shard `{tenant}` is corrupt: {cause}")
            }
            ServeError::BadBody(m) => write!(f, "unparsable batch body: {m}"),
            ServeError::OutOfOrder { expected, got } => write!(
                f,
                "out-of-order batch: shard expects step {expected}, body claims {got}"
            ),
            ServeError::BadQuery(m) => write!(f, "bad query parameter: {m}"),
            ServeError::Core(e) => write!(f, "decomposition rejected batch: {e}"),
            ServeError::Http(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<HttpError> for ServeError {
    fn from(e: HttpError) -> Self {
        ServeError::Http(e)
    }
}
