//! The counter scraper: turns the server's `STATS json` and `METRICS`
//! replies into the per-layer counters. Both are read through the public
//! verbs only.

use std::collections::BTreeMap;

/// A parsed JSON value (the subset `STATS json` emits).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value under `key`, when this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(format!("STATS json: no number under '{key}'")),
        }
    }
}

/// Parses one JSON document; trailing bytes are an error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.at != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.at));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.at).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                if self.peek() == Some(b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let key = self.string()?;
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek() {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at offset {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                if self.peek() == Some(b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at offset {}", self.at)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self.at < self.bytes.len()
            && matches!(
                self.bytes[self.at],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&byte) = self.bytes.get(self.at) else {
                return Err("unterminated string".to_string());
            };
            self.at += 1;
            match byte {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    match esc {
                        b'"' | b'\\' | b'/' => out.push(esc as char),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at offset {}", self.at)),
                    }
                }
                _ => {
                    // Copy the whole UTF-8 sequence starting at this byte.
                    let start = self.at - 1;
                    let mut end = self.at;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end]).map_err(|e| e.to_string())?,
                    );
                    self.at = end;
                }
            }
        }
    }
}

/// The service counters of one `STATS json` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    pub batches: u64,
    pub steals: u64,
    pub shed: u64,
    pub peak_queued: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
}

/// Parses a `STATS json` reply (with or without its `OK ` prefix).
pub fn parse_stats_json(reply: &str) -> Result<ServerStats, String> {
    let body = reply.strip_prefix("OK ").unwrap_or(reply);
    let json = parse_json(body)?;
    let count = |key: &str| json.num(key).map(|n| n as u64);
    Ok(ServerStats {
        batches: count("batches")?,
        steals: count("steals")?,
        shed: count("shed")?,
        peak_queued: count("peak_queued")?,
        plan_hits: count("plan_hits")?,
        plan_misses: count("plan_misses")?,
    })
}

/// One stage of the `METRICS` latency summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageSummary {
    /// Samples recorded since the server started.
    pub count: u64,
    /// The `quantile="0.5"` value. The server's histograms use
    /// power-of-two buckets, so this is the upper edge of the bucket that
    /// holds the median, not the median itself.
    pub p50_bucket_edge_ns: u64,
}

/// Parses the exposition lines of a `METRICS` reply into per-stage
/// summaries, keyed by stage name.
pub fn parse_stage_metrics(lines: &[String]) -> BTreeMap<String, StageSummary> {
    let mut stages: BTreeMap<String, StageSummary> = BTreeMap::new();
    for line in lines {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<u64>() else {
            continue;
        };
        let Some((family, labels)) = series.split_once('{') else {
            continue;
        };
        let label = |key: &str| {
            labels
                .trim_end_matches('}')
                .split(',')
                .find_map(|kv| kv.strip_prefix(key)?.strip_prefix("=\""))
                .map(|v| v.trim_end_matches('"').to_string())
        };
        let Some(stage) = label("stage") else {
            continue;
        };
        match family {
            "xseed_stage_latency_ns_count" => stages.entry(stage).or_default().count = value,
            "xseed_stage_latency_ns" if label("quantile").as_deref() == Some("0.5") => {
                stages.entry(stage).or_default().p50_bucket_edge_ns = value
            }
            _ => {}
        }
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: &str = "OK {\"workers\":2,\"uptime_secs\":3,\"executed\":1200,\"batches\":40,\
        \"steals\":7,\"accepted\":1200,\"shed\":0,\"queued\":0,\"peak_queued\":64,\
        \"queue_capacity\":1024,\"feedback_applied\":0,\"feedback_ignored\":0,\
        \"rebuilds_triggered\":0,\"error_mass\":0.5,\"qerr\":{\"count\":0,\"p50\":0.000,\
        \"p90\":0.000,\"p99\":0.000},\"plan_hits\":900,\"plan_misses\":300,\
        \"plan_entries\":300,\"persist_saves\":0,\"persist_loads\":0,\
        \"persist_load_failures\":0,\"quarantined\":0,\"docs\":[{\"name\":\"xm\",\
        \"epoch\":3,\"vertices\":90,\"elements\":29971,\"bytes\":1000,\"compiled_hits\":5,\
        \"compiled_misses\":2,\"error_mass\":0,\"rebuilds\":0},{\"name\":\"d\\\"q\",\
        \"epoch\":0,\"vertices\":1,\"elements\":1,\"bytes\":1,\"compiled_hits\":0,\
        \"compiled_misses\":0,\"error_mass\":1e-3,\"rebuilds\":0}]}";

    #[test]
    fn stats_json_yields_the_counters() {
        let stats = parse_stats_json(STATS).expect("parses");
        assert_eq!(stats.batches, 40);
        assert_eq!(stats.steals, 7);
        assert_eq!(stats.peak_queued, 64);
        assert_eq!((stats.plan_hits, stats.plan_misses), (900, 300));
        assert_eq!(stats.shed, 0);
        // The per-document trailer, escaped names included, parses too.
        let json = parse_json(STATS.strip_prefix("OK ").expect("OK reply")).expect("parses");
        let Some(Json::Arr(docs)) = json.get("docs") else {
            panic!("no docs array");
        };
        assert_eq!(docs[1].get("name"), Some(&Json::Str("d\"q".to_string())));
    }

    #[test]
    fn stats_json_rejects_broken_replies() {
        assert!(parse_stats_json("ERR nope").is_err());
        assert!(parse_stats_json("OK {\"steals\":2}").is_err());
        assert!(parse_stats_json(&STATS[..STATS.len() - 1]).is_err());
        assert!(parse_json("{} x").is_err());
    }

    #[test]
    fn json_parser_handles_nesting_and_literals() {
        let v = parse_json(r#"{"a":[1,-2.5e1,true,null],"b":{"c":"A\n"},"d":[]}"#).expect("parses");
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")),
            Some(&Json::Str("A\n".to_string()))
        );
        assert_eq!(v.get("d"), Some(&Json::Arr(vec![])));
    }

    #[test]
    fn stage_metrics_read_counts_and_bucket_edges() {
        let lines: Vec<String> = [
            "# TYPE xseed_stage_latency_ns summary",
            "xseed_stage_latency_ns{stage=\"parse\",quantile=\"0.5\"} 2047",
            "xseed_stage_latency_ns{stage=\"parse\",quantile=\"0.9\"} 4095",
            "xseed_stage_latency_ns_max{stage=\"parse\"} 9000",
            "xseed_stage_latency_ns_count{stage=\"parse\"} 12",
            "xseed_stage_latency_ns_count{stage=\"compile\"} 0",
            "xseed_executed_total 5",
        ]
        .map(String::from)
        .to_vec();
        let stages = parse_stage_metrics(&lines);
        assert_eq!(
            stages["parse"],
            StageSummary {
                count: 12,
                p50_bucket_edge_ns: 2047
            }
        );
        assert_eq!(stages["compile"].count, 0);
        assert_eq!(stages.len(), 2);
    }
}
