#include "server/job.h"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <system_error>

namespace wcop {
namespace server {

namespace {

void AppendLine(std::string* out, std::string_view key,
                std::string_view value) {
  out->append(key);
  out->push_back(' ');
  out->append(value);
  out->push_back('\n');
}

void AppendString(std::string* out, std::string_view key,
                  std::string_view value) {
  AppendLine(out, key, EscapeToken(value));
}

void AppendInt(std::string* out, std::string_view key, int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  AppendLine(out, key, buf);
}

void AppendUint(std::string* out, std::string_view key, uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  AppendLine(out, key, buf);
}

void AppendDouble(std::string* out, std::string_view key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  AppendLine(out, key, buf);
}

/// Exact decimal integers, as the encoder writes them: no whitespace, no
/// '+', no sign on an unsigned field and nothing out of range, where
/// strtoll/strtoull would skip, wrap ("-5" as 2^64 - 5) or clamp.
template <typename Int>
Result<Int> ParseDecimal(std::string_view value) {
  Int parsed = 0;
  const char* end = value.data() + value.size();
  const std::from_chars_result r =
      std::from_chars(value.data(), end, parsed);
  if (r.ec != std::errc() || r.ptr != end) {
    return Status::ParseError("bad integer '" + std::string(value) + "'");
  }
  return parsed;
}

Result<int64_t> ParseInt(std::string_view value) {
  return ParseDecimal<int64_t>(value);
}

Result<uint64_t> ParseUint(std::string_view value) {
  return ParseDecimal<uint64_t>(value);
}

Result<double> ParseDouble(std::string_view value) {
  char* end = nullptr;
  const std::string copy(value);
  const double parsed = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || *end != '\0') {
    return Status::ParseError("bad double '" + copy + "'");
  }
  return parsed;
}

Result<bool> ParseBool(std::string_view value) {
  if (value == "1" || value == "true") {
    return true;
  }
  if (value == "0" || value == "false") {
    return false;
  }
  return Status::ParseError("bad bool '" + std::string(value) + "'");
}

bool NeedsEscape(unsigned char c) {
  return c <= 0x20 || c == '%' || c >= 0x7f;
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') {
    return c - '0';
  }
  if (c >= 'a' && c <= 'f') {
    return c - 'a' + 10;
  }
  if (c >= 'A' && c <= 'F') {
    return c - 'A' + 10;
  }
  return -1;
}

/// Shared line-walker for the record and spec codecs: calls `field` with
/// each (key, raw value) pair. `field` decides what an unknown key means:
/// the record codec skips it so the ledger format can grow, the spec codec
/// rejects it.
template <typename Fn>
Status WalkLines(std::string_view payload, Fn&& field) {
  size_t pos = 0;
  while (pos < payload.size()) {
    size_t eol = payload.find('\n', pos);
    if (eol == std::string_view::npos) {
      eol = payload.size();
    }
    const std::string_view line = payload.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) {
      continue;
    }
    const size_t space = line.find(' ');
    if (space == std::string_view::npos) {
      return Status::ParseError("job record line without value: '" +
                                std::string(line) + "'");
    }
    WCOP_RETURN_IF_ERROR(
        field(line.substr(0, space), line.substr(space + 1)));
  }
  return Status::OK();
}

/// Decodes one spec field; sets *known=false when the key is not a spec
/// key (the record decoder then tries its own keys).
Status DecodeSpecField(std::string_view key, std::string_view value,
                       JobSpec* spec, bool* known) {
  *known = true;
  if (key == "name") {
    WCOP_ASSIGN_OR_RETURN(spec->name, UnescapeToken(value));
  } else if (key == "tenant") {
    WCOP_ASSIGN_OR_RETURN(spec->tenant, UnescapeToken(value));
  } else if (key == "input_store") {
    WCOP_ASSIGN_OR_RETURN(spec->input_store, UnescapeToken(value));
  } else if (key == "output_csv") {
    WCOP_ASSIGN_OR_RETURN(spec->output_csv, UnescapeToken(value));
  } else if (key == "kind") {
    WCOP_ASSIGN_OR_RETURN(spec->kind, UnescapeToken(value));
  } else if (key == "window_seconds") {
    WCOP_ASSIGN_OR_RETURN(spec->window_seconds, ParseDouble(value));
  } else if (key == "output_dir") {
    WCOP_ASSIGN_OR_RETURN(spec->output_dir, UnescapeToken(value));
  } else if (key == "audit_windows_dir") {
    WCOP_ASSIGN_OR_RETURN(spec->audit_windows_dir, UnescapeToken(value));
  } else if (key == "audit_original_store") {
    WCOP_ASSIGN_OR_RETURN(spec->audit_original_store, UnescapeToken(value));
  } else if (key == "audit_adversary") {
    WCOP_ASSIGN_OR_RETURN(spec->audit_adversary, UnescapeToken(value));
  } else if (key == "audit_victims") {
    WCOP_ASSIGN_OR_RETURN(spec->audit_victims, ParseUint(value));
  } else if (key == "assign_k") {
    WCOP_ASSIGN_OR_RETURN(spec->assign_k, ParseDecimal<int>(value));
  } else if (key == "assign_delta") {
    WCOP_ASSIGN_OR_RETURN(spec->assign_delta, ParseDouble(value));
  } else if (key == "shards") {
    WCOP_ASSIGN_OR_RETURN(uint64_t v, ParseUint(value));
    spec->shards = static_cast<size_t>(v);
  } else if (key == "overlap_margin") {
    WCOP_ASSIGN_OR_RETURN(spec->overlap_margin, ParseDouble(value));
  } else if (key == "deadline_ms") {
    WCOP_ASSIGN_OR_RETURN(spec->deadline_ms, ParseInt(value));
  } else if (key == "max_distance_computations") {
    WCOP_ASSIGN_OR_RETURN(spec->max_distance_computations, ParseUint(value));
  } else if (key == "allow_partial") {
    WCOP_ASSIGN_OR_RETURN(spec->allow_partial, ParseBool(value));
  } else if (key == "seed") {
    WCOP_ASSIGN_OR_RETURN(spec->seed, ParseUint(value));
  } else {
    *known = false;
  }
  return Status::OK();
}

void EncodeSpecFields(std::string* out, const JobSpec& spec) {
  AppendString(out, "name", spec.name);
  AppendString(out, "tenant", spec.tenant);
  AppendString(out, "input_store", spec.input_store);
  AppendString(out, "output_csv", spec.output_csv);
  AppendString(out, "kind", spec.kind);
  AppendDouble(out, "window_seconds", spec.window_seconds);
  AppendString(out, "output_dir", spec.output_dir);
  AppendString(out, "audit_windows_dir", spec.audit_windows_dir);
  AppendString(out, "audit_original_store", spec.audit_original_store);
  AppendString(out, "audit_adversary", spec.audit_adversary);
  AppendUint(out, "audit_victims", spec.audit_victims);
  AppendInt(out, "assign_k", spec.assign_k);
  AppendDouble(out, "assign_delta", spec.assign_delta);
  AppendUint(out, "shards", spec.shards);
  AppendDouble(out, "overlap_margin", spec.overlap_margin);
  AppendInt(out, "deadline_ms", spec.deadline_ms);
  AppendUint(out, "max_distance_computations",
             spec.max_distance_computations);
  AppendLine(out, "allow_partial", spec.allow_partial ? "1" : "0");
  AppendUint(out, "seed", spec.seed);
}

}  // namespace

std::string_view JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
  }
  return "unknown";
}

Result<JobState> JobStateFromName(std::string_view name) {
  if (name == "queued") {
    return JobState::kQueued;
  }
  if (name == "running") {
    return JobState::kRunning;
  }
  if (name == "done") {
    return JobState::kDone;
  }
  if (name == "failed") {
    return JobState::kFailed;
  }
  return Status::ParseError("unknown job state '" + std::string(name) + "'");
}

std::string EscapeToken(std::string_view raw) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(raw.size() + 2);
  for (const char c : raw) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (NeedsEscape(u)) {
      out.push_back('%');
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  if (out.empty()) {
    out = "%00";  // empty strings still need a token on the line
  }
  return out;
}

Result<std::string> UnescapeToken(std::string_view token) {
  if (token == "%00") {
    return std::string();  // the empty-string marker EscapeToken emits
  }
  std::string out;
  out.reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out.push_back(token[i]);
      continue;
    }
    if (i + 2 >= token.size()) {
      return Status::ParseError("truncated %-escape in token");
    }
    const int hi = HexDigit(token[i + 1]);
    const int lo = HexDigit(token[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::ParseError("bad %-escape in token");
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return out;
}

std::string EncodeJobRecord(const JobRecord& record) {
  std::string out;
  AppendInt(&out, "id", record.id);
  AppendLine(&out, "state", JobStateName(record.state));
  AppendUint(&out, "attempts", record.attempts);
  EncodeSpecFields(&out, record.spec);
  AppendLine(&out, "degraded", record.outcome.degraded ? "1" : "0");
  AppendString(&out, "degraded_reason", record.outcome.degraded_reason);
  AppendLine(&out, "verified", record.outcome.verified ? "1" : "0");
  AppendUint(&out, "published", record.outcome.published);
  AppendUint(&out, "suppressed", record.outcome.suppressed);
  AppendUint(&out, "clusters", record.outcome.clusters);
  AppendDouble(&out, "total_distortion", record.outcome.total_distortion);
  AppendUint(&out, "resumed_shards", record.outcome.resumed_shards);
  AppendString(&out, "error", record.outcome.error);
  AppendString(&out, "trace_id", record.trace_id);
  AppendUint(&out, "progress_shards_done", record.progress.shards_done);
  AppendUint(&out, "progress_shards_total", record.progress.shards_total);
  AppendUint(&out, "progress_distance_calls",
             record.progress.distance_calls);
  AppendDouble(&out, "progress_eta_seconds", record.progress.eta_seconds);
  return out;
}

Result<JobRecord> DecodeJobRecord(std::string_view payload) {
  JobRecord record;
  bool saw_id = false;
  Status walk = WalkLines(
      payload,
      [&](std::string_view key, std::string_view value) -> Status {
        bool known = false;
        WCOP_RETURN_IF_ERROR(
            DecodeSpecField(key, value, &record.spec, &known));
        if (known) {
          return Status::OK();
        }
        if (key == "id") {
          WCOP_ASSIGN_OR_RETURN(record.id, ParseInt(value));
          saw_id = true;
        } else if (key == "state") {
          WCOP_ASSIGN_OR_RETURN(record.state, JobStateFromName(value));
        } else if (key == "attempts") {
          WCOP_ASSIGN_OR_RETURN(record.attempts, ParseUint(value));
        } else if (key == "degraded") {
          WCOP_ASSIGN_OR_RETURN(record.outcome.degraded, ParseBool(value));
        } else if (key == "degraded_reason") {
          WCOP_ASSIGN_OR_RETURN(record.outcome.degraded_reason,
                                UnescapeToken(value));
        } else if (key == "verified") {
          WCOP_ASSIGN_OR_RETURN(record.outcome.verified, ParseBool(value));
        } else if (key == "published") {
          WCOP_ASSIGN_OR_RETURN(record.outcome.published, ParseUint(value));
        } else if (key == "suppressed") {
          WCOP_ASSIGN_OR_RETURN(record.outcome.suppressed, ParseUint(value));
        } else if (key == "clusters") {
          WCOP_ASSIGN_OR_RETURN(record.outcome.clusters, ParseUint(value));
        } else if (key == "total_distortion") {
          WCOP_ASSIGN_OR_RETURN(record.outcome.total_distortion,
                                ParseDouble(value));
        } else if (key == "resumed_shards") {
          WCOP_ASSIGN_OR_RETURN(record.outcome.resumed_shards,
                                ParseUint(value));
        } else if (key == "error") {
          WCOP_ASSIGN_OR_RETURN(record.outcome.error, UnescapeToken(value));
        } else if (key == "trace_id") {
          WCOP_ASSIGN_OR_RETURN(record.trace_id, UnescapeToken(value));
        } else if (key == "progress_shards_done") {
          WCOP_ASSIGN_OR_RETURN(record.progress.shards_done,
                                ParseUint(value));
        } else if (key == "progress_shards_total") {
          WCOP_ASSIGN_OR_RETURN(record.progress.shards_total,
                                ParseUint(value));
        } else if (key == "progress_distance_calls") {
          WCOP_ASSIGN_OR_RETURN(record.progress.distance_calls,
                                ParseUint(value));
        } else if (key == "progress_eta_seconds") {
          WCOP_ASSIGN_OR_RETURN(record.progress.eta_seconds,
                                ParseDouble(value));
        }
        // Unknown keys: skip (forward compatibility).
        return Status::OK();
      });
  if (!walk.ok()) {
    // The ledger reads records through the snapshot envelope, whose CRC
    // already rules out torn writes; an undecodable payload is corruption.
    return Status::DataLoss("job record: " + walk.ToString());
  }
  if (!saw_id) {
    return Status::DataLoss("job record without id");
  }
  return record;
}

std::string EncodeJobSpec(const JobSpec& spec) {
  std::string out;
  EncodeSpecFields(&out, spec);
  return out;
}

Result<JobSpec> DecodeJobSpec(std::string_view body) {
  JobSpec spec;
  WCOP_RETURN_IF_ERROR(WalkLines(
      body, [&](std::string_view key, std::string_view value) -> Status {
        bool known = false;
        WCOP_RETURN_IF_ERROR(DecodeSpecField(key, value, &spec, &known));
        if (!known) {
          // A client's typo ("assign-k") must not run a job that silently
          // ignores the setting.
          return Status::InvalidArgument("unknown job spec key '" +
                                         EscapeToken(key) + "'");
        }
        return Status::OK();
      }));
  return spec;
}

Status ValidateJobSpec(const JobSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("job name is required");
  }
  if (spec.name.size() > 128) {
    return Status::InvalidArgument("job name exceeds 128 characters");
  }
  for (const char c : spec.name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
          c == '_' || c == '-')) {
      return Status::InvalidArgument(
          "job name may only contain [A-Za-z0-9._-]: '" + spec.name + "'");
    }
  }
  if (spec.input_store.empty()) {
    return Status::InvalidArgument("input_store is required");
  }
  if (!spec.kind.empty() && spec.kind != "batch" &&
      spec.kind != "continuous" && spec.kind != "audit") {
    return Status::InvalidArgument(
        "kind must be 'batch', 'continuous' or 'audit': '" + spec.kind +
        "'");
  }
  if (spec.kind == "continuous" &&
      !(spec.window_seconds > 0.0)) {  // also rejects NaN
    return Status::InvalidArgument(
        "window_seconds must be > 0 for continuous jobs");
  }
  if (spec.kind == "audit") {
    if (!spec.audit_adversary.empty() && spec.audit_adversary != "weak" &&
        spec.audit_adversary != "moderate" &&
        spec.audit_adversary != "strong") {
      return Status::InvalidArgument(
          "audit_adversary must be 'weak', 'moderate' or 'strong': '" +
          spec.audit_adversary + "'");
    }
  } else if (!spec.audit_windows_dir.empty() ||
             !spec.audit_original_store.empty()) {
    return Status::InvalidArgument(
        "audit_windows_dir/audit_original_store require kind=audit");
  }
  if (spec.assign_k < 0 || spec.assign_k == 1) {
    return Status::InvalidArgument("assign_k must be 0 (keep) or >= 2");
  }
  if (spec.assign_delta < 0.0) {
    return Status::InvalidArgument("assign_delta must be >= 0");
  }
  if (spec.shards == 0 || spec.shards > 4096) {
    return Status::InvalidArgument("shards must be in [1, 4096]");
  }
  if (spec.overlap_margin < 0.0) {
    return Status::InvalidArgument("overlap_margin must be >= 0");
  }
  if (spec.deadline_ms < 0) {
    return Status::InvalidArgument("deadline_ms must be >= 0");
  }
  return Status::OK();
}

}  // namespace server
}  // namespace wcop
