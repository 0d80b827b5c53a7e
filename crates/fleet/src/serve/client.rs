//! A thin blocking client for the `astree-serve/2` protocol.
//!
//! One [`Client`] owns one connection and issues requests sequentially
//! (the protocol allows pipelining, but every caller here wants the answer
//! before the next question). Event frames arriving before the final
//! `result` are collected as they come, so a CLI can print telemetry.

use super::PROTO;
use crate::job::{JobOutcome, JobSpec, JobStatus};
use crate::proto::{read_frame, write_frame, Conn, Endpoint};
use crate::wire::{result_outcomes, spec_to_json};
use astree_obs::Json;
use std::io::BufReader;

/// What went wrong with a request.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(std::io::Error),
    /// The daemon answered, but not with a frame this client understands.
    Protocol(String),
    /// The daemon answered with an `error` frame (`overloaded`,
    /// `bad_request`), or [`Client::analyze`]'s job did not end `done`
    /// (`code` is its status slug, `message` its detail).
    Server { code: String, message: String },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server { code, message } => write!(f, "daemon answered {code}: {message}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// An analyze request; `Default` analyzes with the daemon's defaults and
/// coarse event streaming.
#[derive(Debug, Default, Clone)]
pub struct AnalyzeRequest {
    /// C source text of the program.
    pub source: String,
    /// The job's `overrides`: a partial `AnalysisConfig::to_json` object
    /// (`loop_unroll`, `enable_octagons`, …). The daemon decodes it strictly.
    pub overrides: Option<Json>,
    /// Event mode: `"none"`, `"coarse"` (default) or `"all"`.
    pub events: Option<&'static str>,
    /// Debug: hold the admission slot for this long before analyzing.
    pub hold_ms: Option<u64>,
}

/// The outcome of an analyze request that ran to completion.
#[derive(Debug)]
pub struct RequestOutcome {
    /// Alarms, rendered exactly as the one-shot CLI renders them.
    pub alarms: Vec<String>,
    /// The main loop invariant, rendered exactly as `--dump-invariant`.
    pub main_invariant: Option<String>,
    /// The main loop invariant census, rendered exactly as `--census`.
    pub main_census: Option<String>,
    /// Whether the daemon's shared store answered (a re-proved hit).
    pub cache_full_hit: bool,
    /// Event frames received before the result.
    pub events: Vec<Json>,
}

/// A blocking protocol client over one connection.
pub struct Client {
    reader: BufReader<Conn>,
    writer: Conn,
    next_id: u64,
}

impl Client {
    /// Connects to a serving daemon.
    pub fn connect(endpoint: &Endpoint) -> std::io::Result<Client> {
        let conn = Conn::connect(endpoint)?;
        Ok(Client { reader: BufReader::new(conn.try_clone()?), writer: conn, next_id: 1 })
    }

    fn request(&mut self, mut fields: Vec<(&'static str, Json)>) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut all = vec![("proto", Json::str(PROTO)), ("id", Json::UInt(id))];
        all.append(&mut fields);
        write_frame(&mut self.writer, &Json::obj(all))?;
        Ok(id)
    }

    /// Reads frames for `id` until a final (non-event) frame arrives.
    /// Event frames are appended to `events`.
    fn final_frame(&mut self, id: u64, events: &mut Vec<Json>) -> Result<Json, ClientError> {
        loop {
            let frame = read_frame(&mut self.reader)?
                .ok_or_else(|| ClientError::Protocol("daemon closed the connection".into()))?;
            if frame.get("id").and_then(Json::as_u64) != Some(id) {
                continue; // stale frame from an abandoned request
            }
            match frame.get("frame").and_then(Json::as_str) {
                Some("event") => {
                    if let Some(ev) = frame.get("event") {
                        events.push(ev.clone());
                    }
                }
                Some("error") => {
                    let code =
                        frame.get("code").and_then(Json::as_str).unwrap_or("internal").to_string();
                    let message =
                        frame.get("message").and_then(Json::as_str).unwrap_or_default().to_string();
                    return Err(ClientError::Server { code, message });
                }
                Some(_) => return Ok(frame),
                None => return Err(ClientError::Protocol("frame without a `frame` tag".into())),
            }
        }
    }

    /// Sends one `run` request of encoded specs; returns the outcomes, in
    /// submission order, and the events streamed before them.
    fn run(
        &mut self,
        specs: Vec<Json>,
        events: Option<&'static str>,
        hold_ms: Option<u64>,
    ) -> Result<(Vec<JobOutcome>, Vec<Json>), ClientError> {
        let mut fields = vec![("req", Json::str("run")), ("jobs", Json::Arr(specs))];
        fields.extend(events.map(|mode| ("events", Json::str(mode))));
        fields.extend(hold_ms.map(|ms| ("hold_ms", Json::UInt(ms))));
        let id = self.request(fields)?;
        let mut events = Vec::new();
        let frame = self.final_frame(id, &mut events)?;
        Ok((result_outcomes(&frame).map_err(ClientError::Protocol)?, events))
    }

    /// Analyzes one program on the daemon: a one-job `run`. A job that does
    /// not end `done` (a compile error, a panic) is a
    /// [`ClientError::Server`] carrying its status and detail.
    pub fn analyze(&mut self, req: &AnalyzeRequest) -> Result<RequestOutcome, ClientError> {
        let mut job = JobSpec::new("analyze", req.source.as_str());
        job.overrides = req.overrides.clone().unwrap_or(job.overrides);
        let (outcomes, events) = self.run(vec![spec_to_json(&job)], req.events, req.hold_ms)?;
        let Ok([out]) = <[JobOutcome; 1]>::try_from(outcomes) else {
            return Err(ClientError::Protocol("expected one outcome".into()));
        };
        if out.status != JobStatus::Done {
            let (code, message) = (out.status.slug().to_string(), out.detail.unwrap_or_default());
            return Err(ClientError::Server { code, message });
        }
        Ok(RequestOutcome {
            alarms: out.alarm_lines,
            main_invariant: out.main_invariant,
            main_census: out.main_census,
            cache_full_hit: out.cache_full_hit,
            events,
        })
    }

    /// Runs a fleet of jobs in one request, without event streaming, and
    /// returns their outcomes in submission order.
    pub fn batch(&mut self, jobs: &[JobSpec]) -> Result<Vec<JobOutcome>, ClientError> {
        Ok(self.run(jobs.iter().map(spec_to_json).collect(), Some("none"), None)?.0)
    }

    /// Fetches the daemon's `status` frame.
    pub fn status(&mut self) -> Result<Json, ClientError> {
        let id = self.request(vec![("req", Json::str("status"))])?;
        self.final_frame(id, &mut Vec::new())
    }

    /// Asks the daemon to shut down; returns once it acknowledges.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let id = self.request(vec![("req", Json::str("shutdown"))])?;
        let frame = self.final_frame(id, &mut Vec::new())?;
        match frame.get("frame").and_then(Json::as_str) {
            Some("bye") => Ok(()),
            _ => Err(ClientError::Protocol(format!("unexpected frame {}", frame.to_compact()))),
        }
    }
}
