//! The wire answer to Table 1's queries. The reactor
//! ([`crate::server`]) serves a leader's or a replica's
//! [`Versioned`](risgraph_core::Versioned) store, and answers both
//! through this one function.

use risgraph_common::protocol::{Request, Response, WireError, MAX_RESPONSE_FRAME};
use risgraph_common::Error;
use risgraph_core::Versioned;

/// A [`Response::Failed`] for `e` at the store's current version.
pub(crate) fn failed(versioned: &Versioned, e: &Error) -> Response {
    Response::Failed {
        version: versioned.current_version(),
        error: WireError::from_error(e),
    }
}

/// The encoded answer to a `get_value` / `get_parent` /
/// `get_modified_vertices` / `get_current_version` request, echoing
/// `req_id`. Errors are answered as [`Response::Failed`] at the current
/// version — including a wire-supplied algorithm index out of range,
/// checked before it reaches the store's unchecked indexing, and any
/// request that is not one of these four.
pub(crate) fn answer_query(versioned: &Versioned, req_id: u64, request: &Request) -> Vec<u8> {
    let algo_index = |algo: u32| {
        let maintained = versioned.engine().num_algorithms();
        if algo as usize >= maintained {
            return Err(Error::Protocol(format!(
                "algorithm index {algo} out of range ({maintained} maintained)"
            )));
        }
        Ok(algo as usize)
    };
    let answer = match *request {
        Request::GetValue {
            algo,
            version,
            vertex,
        } => algo_index(algo)
            .and_then(|a| versioned.get_value(a, version, vertex))
            .map(Response::Value),
        Request::GetParent {
            algo,
            version,
            vertex,
        } => algo_index(algo)
            .and_then(|a| versioned.get_parent(a, version, vertex))
            .map(Response::Parent),
        Request::GetModified { algo, version } => algo_index(algo)
            .and_then(|a| versioned.get_modified_vertices(a, version))
            .map(Response::Modified),
        Request::CurrentVersion => Ok(Response::Version(versioned.current_version())),
        _ => Err(Error::Protocol("not a query".into())),
    };
    let mut payload = answer
        .unwrap_or_else(|e| failed(versioned, &e))
        .encode(req_id);
    // A modification set is the one answer whose size scales with the
    // affected area: refuse to emit a frame the client would reject as
    // oversized — failing this request alone beats tearing down every
    // pipelined request on the connection.
    if payload.len() > MAX_RESPONSE_FRAME {
        let e = Error::Protocol(format!(
            "modification set encodes to {} bytes, over the \
             {MAX_RESPONSE_FRAME}-byte response limit",
            payload.len()
        ));
        payload = failed(versioned, &e).encode(req_id);
    }
    payload
}
