//! The Mercury message vocabulary.
//!
//! Every inter-component interaction in the ground station is one of these
//! messages, encoded as an XML element. The vocabulary covers:
//!
//! * **failure detection** — [`Message::Ping`] / [`Message::Pong`], the
//!   application-level liveness probes of §2.2 ("a successful response
//!   indicates the component's liveness with higher confidence than a
//!   network-level ICMP ping");
//! * **pass operations** — tracking, estimation and tuning traffic between
//!   `str`, `ses`, `rtu` and the radio front end;
//! * **radio I/O** — high-level radio commands (`fedr`) and raw serial frames
//!   (`pbcom`);
//! * **startup synchronization** — the ses/str handshake whose blocking
//!   behaviour causes the correlated failures consolidated away in §4.3;
//! * **health beacons** — the component health summaries proposed as future
//!   work in §7.

use std::fmt;

use crate::error::MsgError;
use crate::xml::{self, ElementRef, WireWriter};

/// Component self-reported status carried in pongs and beacons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentStatus {
    /// Up and processing normally.
    Ok,
    /// Booting or re-synchronizing; not yet serving requests.
    Starting,
    /// Alive but degraded (e.g. resource aging detected).
    Degraded,
}

impl ComponentStatus {
    fn as_str(self) -> &'static str {
        match self {
            ComponentStatus::Ok => "ok",
            ComponentStatus::Starting => "starting",
            ComponentStatus::Degraded => "degraded",
        }
    }

    fn parse(s: &str) -> Result<Self, MsgError> {
        match s {
            "ok" => Ok(ComponentStatus::Ok),
            "starting" => Ok(ComponentStatus::Starting),
            "degraded" => Ok(ComponentStatus::Degraded),
            other => Err(MsgError::schema(format!("unknown status {other:?}"))),
        }
    }
}

impl fmt::Display for ComponentStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The radio band a tune command selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioBand {
    /// 144–146 MHz amateur band (uplink for Stanford's satellites).
    Vhf,
    /// 435–438 MHz amateur band (downlink).
    Uhf,
}

impl RadioBand {
    fn as_str(self) -> &'static str {
        match self {
            RadioBand::Vhf => "vhf",
            RadioBand::Uhf => "uhf",
        }
    }

    fn parse(s: &str) -> Result<Self, MsgError> {
        match s {
            "vhf" => Ok(RadioBand::Vhf),
            "uhf" => Ok(RadioBand::Uhf),
            other => Err(MsgError::schema(format!("unknown band {other:?}"))),
        }
    }
}

impl fmt::Display for RadioBand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Tracker state reported in telemetry/status traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrackingState {
    /// Antenna parked, no pass in progress.
    Idle,
    /// Slewing to the predicted acquisition-of-signal position.
    Acquiring,
    /// Actively following the satellite.
    Tracking,
}

impl TrackingState {
    fn as_str(self) -> &'static str {
        match self {
            TrackingState::Idle => "idle",
            TrackingState::Acquiring => "acquiring",
            TrackingState::Tracking => "tracking",
        }
    }

    /// Parses the wire form (`idle` / `acquiring` / `tracking`).
    ///
    /// # Errors
    ///
    /// Returns [`MsgError::Schema`] for unknown values.
    pub fn parse(s: &str) -> Result<Self, MsgError> {
        match s {
            "idle" => Ok(TrackingState::Idle),
            "acquiring" => Ok(TrackingState::Acquiring),
            "tracking" => Ok(TrackingState::Tracking),
            other => Err(MsgError::schema(format!(
                "unknown tracking state {other:?}"
            ))),
        }
    }
}

impl fmt::Display for TrackingState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A Mercury command-language message.
///
/// ```
/// use mercury_msg::Message;
/// let m = Message::TuneRadio { frequency_hz: 437_100_000.0, band: mercury_msg::RadioBand::Uhf };
/// assert_eq!(m.to_string(), r#"<tune freq="437100000.0" band="uhf"/>"#);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// "Are you alive?" — sent by the failure detector every second.
    Ping {
        /// Monotonic probe sequence number.
        seq: u64,
    },
    /// Liveness reply.
    Pong {
        /// Echoes the probe's sequence number.
        seq: u64,
        /// The component's self-reported status.
        status: ComponentStatus,
    },
    /// Operator-level request to run a pass against a satellite.
    TrackRequest {
        /// Satellite name (e.g. `opal`, `sapphire`).
        satellite: String,
    },
    /// Antenna pointing command issued by the tracker.
    PointAntenna {
        /// Azimuth in degrees clockwise from north.
        azimuth_deg: f64,
        /// Elevation in degrees above the horizon.
        elevation_deg: f64,
    },
    /// Request for a satellite state estimate (position + Doppler).
    EstimateRequest {
        /// Satellite name.
        satellite: String,
        /// Seconds since the scenario epoch at which the estimate is wanted.
        at_epoch_s: f64,
    },
    /// Satellite state estimate produced by `ses`.
    EstimateReply {
        /// Azimuth in degrees.
        azimuth_deg: f64,
        /// Elevation in degrees (negative = below horizon).
        elevation_deg: f64,
        /// Slant range in kilometres.
        range_km: f64,
        /// Downlink Doppler shift in hertz.
        doppler_hz: f64,
    },
    /// Radio tuning command issued by `rtu`.
    TuneRadio {
        /// Centre frequency in hertz (Doppler-corrected).
        frequency_hz: f64,
        /// Which radio to tune.
        band: RadioBand,
    },
    /// High-level radio command translated by `fedr` for the hardware.
    RadioCommand {
        /// The command verb (e.g. `FREQ`, `MODE`, `PTT`).
        verb: String,
        /// Verb argument.
        arg: String,
    },
    /// A raw serial frame crossing the `pbcom` serial/TCP bridge.
    SerialFrame {
        /// Frame payload as lowercase hex.
        hex: String,
    },
    /// A telemetry frame received from the satellite during a pass.
    Telemetry {
        /// Satellite name.
        satellite: String,
        /// Frame sequence number within the pass.
        frame: u64,
        /// Payload as lowercase hex.
        hex: String,
    },
    /// ses/str startup synchronization request (§4.3): a freshly restarted
    /// peer blocks until this handshake completes.
    SyncRequest {
        /// Incarnation number of the requester.
        incarnation: u64,
    },
    /// ses/str synchronization acknowledgement.
    SyncAck {
        /// Incarnation number being acknowledged.
        incarnation: u64,
    },
    /// Component health-summary beacon (future work, §7): a digest of
    /// internal metrics broadcast periodically.
    Beacon {
        /// Reporting component.
        component: String,
        /// Self-reported status.
        status: ComponentStatus,
        /// Seconds since this incarnation started.
        uptime_s: f64,
        /// Resource-aging score in `[0, 1]`; 1 means imminent failure.
        aging: f64,
        /// Messages handled this incarnation.
        handled: u64,
    },
    /// Generic acknowledgement of an envelope id.
    Ack {
        /// The envelope id being acknowledged.
        of: u64,
    },
    /// FD → REC failure report over the dedicated connection (§2.2).
    Failed {
        /// The component whose liveness pings went unanswered.
        component: String,
    },
    /// FD → REC batched failure report: every component whose ping timed
    /// out at the same instant of the same ping round. Reporting concurrent
    /// suspicions together lets REC plan one antichain of restart episodes
    /// instead of discovering overlaps restart-by-restart.
    FailedBatch {
        /// The suspected components, in FD's detection order. Never empty.
        components: Vec<String>,
    },
    /// FD → REC recovery notice: a previously failed component answers pings
    /// again.
    Alive {
        /// The component that came back.
        component: String,
    },
    /// Fault-injection hook used by the evaluation harness (the equivalent of
    /// the paper's instrumented failure campaigns): instructs a component to
    /// adopt a faulty behaviour, e.g. `poison` makes `fedr` corrupt its
    /// `pbcom` session so that only a joint restart cures the failure (§4.4).
    TestHook {
        /// The behaviour to adopt.
        action: String,
    },
}

fn req_attr<'a>(el: &'a ElementRef<'_>, key: &str) -> Result<&'a str, MsgError> {
    el.attr(key)
        .ok_or_else(|| MsgError::schema(format!("<{}> missing attribute {key:?}", el.name())))
}

fn req_u64(el: &ElementRef<'_>, key: &str) -> Result<u64, MsgError> {
    let raw = req_attr(el, key)?;
    raw.parse().map_err(|_| {
        MsgError::schema(format!(
            "<{}> attribute {key}={raw:?} is not a u64",
            el.name()
        ))
    })
}

fn req_f64(el: &ElementRef<'_>, key: &str) -> Result<f64, MsgError> {
    let raw = req_attr(el, key)?;
    let v: f64 = raw.parse().map_err(|_| {
        MsgError::schema(format!(
            "<{}> attribute {key}={raw:?} is not a number",
            el.name()
        ))
    })?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(MsgError::schema(format!(
            "<{}> attribute {key} is not finite",
            el.name()
        )))
    }
}

/// Displays an `f64` so that it round-trips exactly through `parse`: `{:?}`
/// prints the shortest representation that parses back to the same value.
struct RoundTrip(f64);

impl fmt::Display for RoundTrip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl Message {
    /// Writes the message's one attribute-only element to `w`: the encode
    /// side of the vocabulary.
    pub(crate) fn write_xml(&self, w: &mut WireWriter) {
        match self {
            Message::Ping { seq } => w.start("ping").attr_display("seq", seq).end("ping"),
            Message::Pong { seq, status } => w
                .start("pong")
                .attr_display("seq", seq)
                .attr("status", status.as_str())
                .end("pong"),
            Message::TrackRequest { satellite } => {
                w.start("track").attr("sat", satellite).end("track")
            }
            Message::PointAntenna {
                azimuth_deg,
                elevation_deg,
            } => w
                .start("point")
                .attr_display("az", RoundTrip(*azimuth_deg))
                .attr_display("el", RoundTrip(*elevation_deg))
                .end("point"),
            Message::EstimateRequest {
                satellite,
                at_epoch_s,
            } => w
                .start("estimate")
                .attr("sat", satellite)
                .attr_display("at", RoundTrip(*at_epoch_s))
                .end("estimate"),
            Message::EstimateReply {
                azimuth_deg,
                elevation_deg,
                range_km,
                doppler_hz,
            } => w
                .start("state")
                .attr_display("az", RoundTrip(*azimuth_deg))
                .attr_display("el", RoundTrip(*elevation_deg))
                .attr_display("range", RoundTrip(*range_km))
                .attr_display("doppler", RoundTrip(*doppler_hz))
                .end("state"),
            Message::TuneRadio { frequency_hz, band } => w
                .start("tune")
                .attr_display("freq", RoundTrip(*frequency_hz))
                .attr("band", band.as_str())
                .end("tune"),
            Message::RadioCommand { verb, arg } => w
                .start("radio")
                .attr("verb", verb)
                .attr("arg", arg)
                .end("radio"),
            Message::SerialFrame { hex } => w.start("serial").attr("hex", hex).end("serial"),
            Message::Telemetry {
                satellite,
                frame,
                hex,
            } => w
                .start("telemetry")
                .attr("sat", satellite)
                .attr_display("frame", frame)
                .attr("hex", hex)
                .end("telemetry"),
            Message::SyncRequest { incarnation } => {
                w.start("sync").attr_display("inc", incarnation).end("sync")
            }
            Message::SyncAck { incarnation } => w
                .start("sync-ack")
                .attr_display("inc", incarnation)
                .end("sync-ack"),
            Message::Beacon {
                component,
                status,
                uptime_s,
                aging,
                handled,
            } => w
                .start("beacon")
                .attr("component", component)
                .attr("status", status.as_str())
                .attr_display("uptime", RoundTrip(*uptime_s))
                .attr_display("aging", RoundTrip(*aging))
                .attr_display("handled", handled)
                .end("beacon"),
            Message::Ack { of } => w.start("ack").attr_display("of", of).end("ack"),
            Message::Failed { component } => {
                w.start("failed").attr("component", component).end("failed")
            }
            Message::FailedBatch { components } => w
                .start("failed-batch")
                .attr("components", &components.join("+"))
                .end("failed-batch"),
            Message::Alive { component } => {
                w.start("alive").attr("component", component).end("alive")
            }
            Message::TestHook { action } => {
                w.start("test-hook").attr("action", action).end("test-hook")
            }
        }
    }

    /// Decodes a message from its element, straight off the parse.
    ///
    /// # Errors
    ///
    /// Returns [`MsgError::Schema`] if the element name is unknown or a
    /// required attribute is missing or malformed.
    pub(crate) fn decode(el: &ElementRef<'_>) -> Result<Message, MsgError> {
        match el.name() {
            "ping" => Ok(Message::Ping {
                seq: req_u64(el, "seq")?,
            }),
            "pong" => Ok(Message::Pong {
                seq: req_u64(el, "seq")?,
                status: ComponentStatus::parse(req_attr(el, "status")?)?,
            }),
            "track" => Ok(Message::TrackRequest {
                satellite: req_attr(el, "sat")?.to_string(),
            }),
            "point" => Ok(Message::PointAntenna {
                azimuth_deg: req_f64(el, "az")?,
                elevation_deg: req_f64(el, "el")?,
            }),
            "estimate" => Ok(Message::EstimateRequest {
                satellite: req_attr(el, "sat")?.to_string(),
                at_epoch_s: req_f64(el, "at")?,
            }),
            "state" => Ok(Message::EstimateReply {
                azimuth_deg: req_f64(el, "az")?,
                elevation_deg: req_f64(el, "el")?,
                range_km: req_f64(el, "range")?,
                doppler_hz: req_f64(el, "doppler")?,
            }),
            "tune" => Ok(Message::TuneRadio {
                frequency_hz: req_f64(el, "freq")?,
                band: RadioBand::parse(req_attr(el, "band")?)?,
            }),
            "radio" => Ok(Message::RadioCommand {
                verb: req_attr(el, "verb")?.to_string(),
                arg: req_attr(el, "arg")?.to_string(),
            }),
            "serial" => Ok(Message::SerialFrame {
                hex: req_attr(el, "hex")?.to_string(),
            }),
            "telemetry" => Ok(Message::Telemetry {
                satellite: req_attr(el, "sat")?.to_string(),
                frame: req_u64(el, "frame")?,
                hex: req_attr(el, "hex")?.to_string(),
            }),
            "sync" => Ok(Message::SyncRequest {
                incarnation: req_u64(el, "inc")?,
            }),
            "sync-ack" => Ok(Message::SyncAck {
                incarnation: req_u64(el, "inc")?,
            }),
            "beacon" => Ok(Message::Beacon {
                component: req_attr(el, "component")?.to_string(),
                status: ComponentStatus::parse(req_attr(el, "status")?)?,
                uptime_s: req_f64(el, "uptime")?,
                aging: req_f64(el, "aging")?,
                handled: req_u64(el, "handled")?,
            }),
            "ack" => Ok(Message::Ack {
                of: req_u64(el, "of")?,
            }),
            "failed" => Ok(Message::Failed {
                component: req_attr(el, "component")?.to_string(),
            }),
            "failed-batch" => {
                let raw = req_attr(el, "components")?;
                if raw.is_empty() || raw.split('+').any(str::is_empty) {
                    return Err(MsgError::schema(
                        "<failed-batch> components must be a non-empty +-joined list",
                    ));
                }
                Ok(Message::FailedBatch {
                    components: raw.split('+').map(str::to_string).collect(),
                })
            }
            "alive" => Ok(Message::Alive {
                component: req_attr(el, "component")?.to_string(),
            }),
            "test-hook" => Ok(Message::TestHook {
                action: req_attr(el, "action")?.to_string(),
            }),
            other => Err(MsgError::schema(format!(
                "unknown message element <{other}>"
            ))),
        }
    }

    /// Bytes of text in this message's strings, when the decoder reads every
    /// value back as written; `None` when a float is not finite
    /// (`req_f64` refuses it) or a `FailedBatch` would not split back into
    /// its names (empty, or a name that is empty or holds the `+` joiner).
    /// The mirror of [`Message::decode`] that
    /// [`Envelope::round_trips`](crate::Envelope::round_trips) consults.
    pub(crate) fn decodable_text_len(&self) -> Option<usize> {
        let finite = |xs: &[f64]| xs.iter().all(|x| x.is_finite());
        match self {
            Message::Ping { .. }
            | Message::Pong { .. }
            | Message::SyncRequest { .. }
            | Message::SyncAck { .. }
            | Message::Ack { .. } => Some(0),
            Message::TrackRequest { satellite } => Some(satellite.len()),
            Message::PointAntenna {
                azimuth_deg,
                elevation_deg,
            } => finite(&[*azimuth_deg, *elevation_deg]).then_some(0),
            Message::EstimateRequest {
                satellite,
                at_epoch_s,
            } => at_epoch_s.is_finite().then_some(satellite.len()),
            Message::EstimateReply {
                azimuth_deg,
                elevation_deg,
                range_km,
                doppler_hz,
            } => finite(&[*azimuth_deg, *elevation_deg, *range_km, *doppler_hz]).then_some(0),
            Message::TuneRadio { frequency_hz, .. } => frequency_hz.is_finite().then_some(0),
            Message::RadioCommand { verb, arg } => Some(verb.len() + arg.len()),
            Message::SerialFrame { hex } => Some(hex.len()),
            Message::Telemetry { satellite, hex, .. } => Some(satellite.len() + hex.len()),
            Message::Beacon {
                component,
                uptime_s,
                aging,
                ..
            } => finite(&[*uptime_s, *aging]).then_some(component.len()),
            Message::Failed { component } | Message::Alive { component } => Some(component.len()),
            Message::FailedBatch { components } => {
                let splits = !components.is_empty()
                    && components.iter().all(|c| !c.is_empty() && !c.contains('+'));
                splits.then(|| components.iter().map(|c| c.len() + 1).sum())
            }
            Message::TestHook { action } => Some(action.len()),
        }
    }

    /// `true` for the failure-detection probe messages (ping/pong), which the
    /// bus prioritizes and which components must answer even while busy.
    pub fn is_liveness(&self) -> bool {
        matches!(self, Message::Ping { .. } | Message::Pong { .. })
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&xml::wire_string(|w| self.write_xml(w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: &Message) {
        let wire = m.to_string();
        let parsed = ElementRef::parse(&wire).expect("reparse");
        let back = Message::decode(&parsed).expect("decode");
        assert_eq!(&back, m, "wire: {wire}");
    }

    fn decode(wire: &str) -> Result<Message, MsgError> {
        Message::decode(&ElementRef::parse(wire).expect("well-formed"))
    }

    #[test]
    fn all_variants_round_trip() {
        let samples = vec![
            Message::Ping { seq: 0 },
            Message::Pong {
                seq: u64::MAX,
                status: ComponentStatus::Degraded,
            },
            Message::TrackRequest {
                satellite: "opal".into(),
            },
            Message::PointAntenna {
                azimuth_deg: 359.999,
                elevation_deg: -0.25,
            },
            Message::EstimateRequest {
                satellite: "sapphire".into(),
                at_epoch_s: 1234.5,
            },
            Message::EstimateReply {
                azimuth_deg: 12.0,
                elevation_deg: 80.0,
                range_km: 700.25,
                doppler_hz: -9123.0,
            },
            Message::TuneRadio {
                frequency_hz: 437_100_000.0,
                band: RadioBand::Uhf,
            },
            Message::RadioCommand {
                verb: "FREQ".into(),
                arg: "437100000".into(),
            },
            Message::SerialFrame {
                hex: "deadbeef".into(),
            },
            Message::Telemetry {
                satellite: "opal".into(),
                frame: 17,
                hex: "00ff".into(),
            },
            Message::SyncRequest { incarnation: 3 },
            Message::SyncAck { incarnation: 3 },
            Message::Beacon {
                component: "fedr".into(),
                status: ComponentStatus::Ok,
                uptime_s: 12.5,
                aging: 0.875,
                handled: 42,
            },
            Message::Ack { of: 99 },
            Message::Failed {
                component: "pbcom".into(),
            },
            Message::FailedBatch {
                components: vec!["fedr".into(), "pbcom".into()],
            },
            Message::Alive {
                component: "pbcom".into(),
            },
            Message::TestHook {
                action: "poison".into(),
            },
        ];
        for m in &samples {
            round_trip(m);
        }
    }

    #[test]
    fn float_attrs_round_trip_exactly() {
        let m = Message::EstimateReply {
            azimuth_deg: std::f64::consts::PI,
            elevation_deg: 1.0 / 3.0,
            range_km: 1e-17,
            doppler_hz: -0.0,
        };
        round_trip(&m);
    }

    #[test]
    fn is_liveness_classifies() {
        assert!(Message::Ping { seq: 1 }.is_liveness());
        assert!(Message::Pong {
            seq: 1,
            status: ComponentStatus::Ok
        }
        .is_liveness());
        assert!(!Message::Ack { of: 1 }.is_liveness());
    }

    #[test]
    fn decode_rejects_unknown_element() {
        let err = decode("<warp-drive/>").unwrap_err();
        assert!(err.to_string().contains("unknown message element"));
    }

    #[test]
    fn decode_rejects_missing_attribute() {
        let err = decode("<ping/>").unwrap_err();
        assert!(err.to_string().contains("missing attribute"));
    }

    #[test]
    fn decode_rejects_malformed_numbers() {
        assert!(decode(r#"<ping seq="-1"/>"#).is_err());
        assert!(decode(r#"<point az="north" el="1"/>"#).is_err());
        assert!(decode(r#"<point az="inf" el="1"/>"#).is_err());
    }

    #[test]
    fn decode_rejects_bad_enums() {
        assert!(decode(r#"<pong seq="1" status="zombie"/>"#).is_err());
        assert!(decode(r#"<tune freq="1" band="x-ray"/>"#).is_err());
    }

    #[test]
    fn display_is_wire_form() {
        let m = Message::Ping { seq: 5 };
        assert_eq!(m.to_string(), r#"<ping seq="5"/>"#);
    }

    #[test]
    fn enum_displays() {
        assert_eq!(ComponentStatus::Ok.to_string(), "ok");
        assert_eq!(RadioBand::Uhf.to_string(), "uhf");
        assert_eq!(TrackingState::Tracking.to_string(), "tracking");
        assert_eq!(TrackingState::parse("idle").unwrap(), TrackingState::Idle);
        assert!(TrackingState::parse("spinning").is_err());
    }
}
