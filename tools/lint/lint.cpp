#include "lint/lint.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace adml_lint {

namespace {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

/// True when `needle` occurs in `code` not immediately preceded by an
/// identifier character (so "srand(" does not match inside "mysrand(").
bool contains_token(std::string_view code, std::string_view needle) {
  std::size_t pos = 0;
  while ((pos = code.find(needle, pos)) != std::string_view::npos) {
    if (pos == 0 || !is_ident_char(code[pos - 1])) return true;
    pos += 1;
  }
  return false;
}

// ---- Per-line lexical model ------------------------------------------------

/// One physical line, lexed: `code` is the line with comments removed and
/// string-literal *contents* dropped (the quotes survive, so structural
/// patterns like `ADML_SPAN("` still match); `strings` holds the dropped
/// literal contents for the rules that inspect them.
struct Line {
  std::string code;
  std::vector<std::string> strings;
  std::string raw;
};

/// Comment/string state machine across the whole file. Handles //, /*...*/
/// (multi-line), "..." with escapes, '...' char literals (kept in `code`:
/// they are single characters and the span-balance rule needs 'B'/'E'),
/// and basic R"(...)" raw strings.
std::vector<Line> lex(std::string_view content) {
  std::vector<Line> lines;
  bool in_block_comment = false;
  bool in_raw_string = false;
  std::string raw_delim;  // the )delim" terminator of the active raw string

  std::size_t start = 0;
  while (start <= content.size()) {
    std::size_t eol = content.find('\n', start);
    if (eol == std::string_view::npos) eol = content.size();
    std::string_view raw = content.substr(start, eol - start);

    Line line;
    line.raw = std::string(raw);
    std::string& code = line.code;
    std::size_t i = 0;
    while (i < raw.size()) {
      if (in_block_comment) {
        const std::size_t end = raw.find("*/", i);
        if (end == std::string_view::npos) {
          i = raw.size();
        } else {
          in_block_comment = false;
          i = end + 2;
        }
        continue;
      }
      if (in_raw_string) {
        const std::size_t end = raw.find(raw_delim, i);
        if (end == std::string_view::npos) {
          i = raw.size();
        } else {
          in_raw_string = false;
          code += '"';  // close the literal in the code view
          i = end + raw_delim.size();
        }
        continue;
      }
      const char c = raw[i];
      if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '/') break;
      if (c == '/' && i + 1 < raw.size() && raw[i + 1] == '*') {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (c == '"') {
        // R"delim( ... )delim" — only when R directly precedes the quote.
        if (!code.empty() && code.back() == 'R' &&
            (code.size() < 2 || !is_ident_char(code[code.size() - 2]))) {
          const std::size_t paren = raw.find('(', i + 1);
          if (paren != std::string_view::npos) {
            raw_delim = ")" + std::string(raw.substr(i + 1, paren - i - 1)) +
                        "\"";
            code += '"';
            in_raw_string = true;
            i = paren + 1;
            const std::size_t end = raw.find(raw_delim, i);
            if (end != std::string_view::npos) {
              line.strings.emplace_back(raw.substr(i, end - i));
              in_raw_string = false;
              code += '"';
              i = end + raw_delim.size();
            } else {
              i = raw.size();
            }
            continue;
          }
        }
        // Ordinary string literal.
        std::string value;
        code += '"';
        ++i;
        while (i < raw.size() && raw[i] != '"') {
          if (raw[i] == '\\' && i + 1 < raw.size()) {
            value += raw[i];
            value += raw[i + 1];
            i += 2;
          } else {
            value += raw[i];
            ++i;
          }
        }
        if (i < raw.size()) ++i;  // closing quote
        code += '"';
        line.strings.push_back(std::move(value));
        continue;
      }
      if (c == '\'') {
        // Char literal: copy verbatim (it is at most a few characters).
        code += c;
        ++i;
        while (i < raw.size() && raw[i] != '\'') {
          if (raw[i] == '\\' && i + 1 < raw.size()) {
            code += raw[i];
            code += raw[i + 1];
            i += 2;
          } else {
            code += raw[i];
            ++i;
          }
        }
        if (i < raw.size()) {
          code += '\'';
          ++i;
        }
        continue;
      }
      code += c;
      ++i;
    }

    lines.push_back(std::move(line));
    if (eol == content.size()) break;
    start = eol + 1;
  }
  return lines;
}

// ---- Path classification ---------------------------------------------------

struct PathInfo {
  std::string rel;        // repo-relative suffix ("src/core/session_io.cpp")
  bool in_src = false;
  bool in_tools = false;
  bool is_annotations = false;  // src/util/annotations.h
  bool is_util = false;         // src/util/ (the concurrency layer)
  bool is_util_rng = false;     // src/util/rng.{h,cpp}
  bool is_obs = false;          // src/obs/
  bool deterministic = false;   // dirs where wall clocks are banned
  bool ordered = false;         // dirs where unordered containers are banned
  bool serialization = false;   // files where floats must round-trip
  bool durable = false;         // files where IO returns must be checked
};

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

PathInfo classify(std::string_view path) {
  PathInfo info;
  std::string norm(path);
  std::replace(norm.begin(), norm.end(), '\\', '/');

  // Fixture corpus mirrors the real tree below this marker.
  static constexpr std::string_view kFixtureMarker = "tests/lint_fixtures/";
  std::string rel = norm;
  if (const std::size_t at = norm.find(kFixtureMarker);
      at != std::string::npos) {
    rel = norm.substr(at + kFixtureMarker.size());
  } else {
    // Match the last repo-relative "src/" or "tools/" component so
    // absolute paths classify identically to relative ones.
    for (const std::string_view root : {"src/", "tools/"}) {
      std::size_t best = std::string::npos;
      std::size_t pos = 0;
      while ((pos = norm.find(root, pos)) != std::string::npos) {
        if (pos == 0 || norm[pos - 1] == '/') best = pos;
        pos += 1;
      }
      if (best != std::string::npos) {
        rel = norm.substr(best);
        break;
      }
    }
  }
  info.rel = rel;
  info.in_src = starts_with(rel, "src/");
  info.in_tools = starts_with(rel, "tools/");
  info.is_annotations = rel == "src/util/annotations.h";
  info.is_util = starts_with(rel, "src/util/");
  info.is_util_rng = starts_with(rel, "src/util/rng.");
  info.is_obs = starts_with(rel, "src/obs/");

  // src/service is deterministic by contract: a session must replay to the
  // same incumbent as a standalone BoTuner, so the daemon may not consult
  // wall clocks (poll timeouts are waits, not reads) or unordered maps.
  static constexpr std::array<std::string_view, 10> kDeterministicDirs = {
      "src/core/",   "src/gp/",  "src/config/",    "src/math/",
      "src/ml/",     "src/sim/", "src/workloads/", "src/baselines/",
      "src/analysis/", "src/service/"};
  for (const auto dir : kDeterministicDirs) {
    if (starts_with(rel, dir)) info.deterministic = true;
  }
  // Everything deterministic plus obs: exports (trace JSON, metric
  // snapshots) must be byte-stable, so iteration order matters there too.
  info.ordered = info.deterministic || info.is_obs;

  static constexpr std::array<std::string_view, 6> kSerializationFiles = {
      "src/core/session_io", "src/util/json",        "src/obs/metrics",
      "src/obs/trace",       "src/service/protocol", "src/service/space_json"};
  for (const auto file : kSerializationFiles) {
    if (starts_with(rel, file)) info.serialization = true;
  }

  // The durability layer: files whose write/fsync/rename calls carry the
  // crash-safety contract (see DESIGN.md §6i).
  static constexpr std::array<std::string_view, 2> kDurableFiles = {
      "src/util/fs", "src/core/session_io"};
  for (const auto file : kDurableFiles) {
    if (starts_with(rel, file)) info.durable = true;
  }
  return info;
}

// ---- Suppressions ----------------------------------------------------------

struct Suppressions {
  std::vector<std::string> codes;  // codes allowed on this line
  bool bare = false;               // an allow() without a justification
};

/// Parses every suppression group — "allow(DNNN justification)" after the
/// tool-name marker — present on the line.
Suppressions parse_suppressions(std::string_view raw) {
  Suppressions out;
  // Split literal so the scanner does not match its own marker text.
  static constexpr std::string_view kMarker = "adml-lint: "
                                              "allow(";
  std::size_t pos = 0;
  while ((pos = raw.find(kMarker, pos)) != std::string_view::npos) {
    pos += kMarker.size();
    const std::size_t close = raw.find(')', pos);
    std::string_view body = raw.substr(
        pos, close == std::string_view::npos ? raw.size() - pos : close - pos);
    const std::size_t space = body.find(' ');
    std::string_view code = body.substr(0, space);
    std::string_view reason =
        space == std::string_view::npos ? "" : body.substr(space + 1);
    while (!reason.empty() && reason.front() == ' ') reason.remove_prefix(1);
    const bool code_ok =
        code.size() == 4 && code[0] == 'D' &&
        std::all_of(code.begin() + 1, code.end(), [](char c) {
          return c >= '0' && c <= '9';
        });
    if (code_ok && !reason.empty()) {
      out.codes.emplace_back(code);
    } else {
      out.bare = true;
    }
  }
  return out;
}

// ---- Rule table ------------------------------------------------------------

struct Needle {
  std::string_view text;
  bool token = false;  // require a non-identifier char before the match
};

constexpr std::array<Needle, 9> kRandomNeedles = {{
    {"std::random_device"},
    {"std::mt19937"},
    {"std::minstd_rand"},
    {"std::default_random_engine"},
    {"std::ranlux24"},
    {"std::ranlux48"},
    {"std::knuth_b"},
    {"std::rand("},
    {"srand(", /*token=*/true},
}};

constexpr std::array<Needle, 9> kClockNeedles = {{
    {"system_clock"},
    {"steady_clock"},
    {"high_resolution_clock"},
    {"gettimeofday", /*token=*/true},
    {"clock_gettime", /*token=*/true},
    {"std::time("},
    {"time(nullptr)", /*token=*/true},
    {"time(NULL)", /*token=*/true},
    {"std::clock("},
}};

constexpr std::array<Needle, 4> kUnorderedNeedles = {{
    {"std::unordered_map"},
    {"std::unordered_set"},
    {"std::unordered_multimap"},
    {"std::unordered_multiset"},
}};

/// Raw thread-spawning primitives. Everything above src/util must run work
/// on util::ThreadPool / util::AsyncEvalExecutor-style seams: ad-hoc
/// threads are invisible to -Wthread-safety, skip the pool's submission
/// ordering (the determinism contract for proposals and the async
/// executor), and leak past the scoped join the pool guarantees.
constexpr std::array<Needle, 3> kRawThreadNeedles = {{
    {"std::thread", /*token=*/true},
    {"std::jthread", /*token=*/true},
    {"std::async", /*token=*/true},
}};

constexpr std::array<Needle, 10> kRawMutexNeedles = {{
    {"std::mutex", /*token=*/true},
    {"std::recursive_mutex"},
    {"std::shared_mutex"},
    {"std::timed_mutex"},
    {"std::condition_variable"},
    {"std::scoped_lock"},
    {"std::unique_lock"},
    {"std::lock_guard"},
    {"std::call_once"},
    {"std::once_flag"},
}};

/// Calls whose return value encodes durability success; matched only in
/// durable files (util/fs, core/session_io). The member-call forms cover
/// the FileOps seam, the :: forms the raw syscall and stdio APIs ("::"
/// also matches the std:: spellings).
constexpr std::array<std::string_view, 16> kDurableIoNeedles = {{
    "::write(", "::fwrite(", "::fsync(", "::fdatasync(", "::rename(",
    "::fflush(", "::fclose(", "::close(", ".write(", "->write(", ".fsync(",
    "->fsync(", ".rename(", "->rename(", ".close(", "->close("}};

/// True when the durable-IO call whose needle matches `code` at `pos`
/// discards its return value. Heuristic on the statement prefix (text
/// between the previous ';'/'{'/'}' and the match): an empty prefix or a
/// bare identifier chain means nothing consumes the result; a prefix that
/// assigns, tests, casts, or returns ('=', '(', '!', comparison, "return",
/// any multi-token text) counts as checked. "(void)x.fsync(...)" contains
/// '(' and is therefore a *deliberate*, visible discard.
bool unchecked_io_call(std::string_view code, std::size_t pos) {
  std::size_t start = 0;
  if (pos > 0) {
    const std::size_t stmt = code.find_last_of(";{}", pos - 1);
    if (stmt != std::string_view::npos) start = stmt + 1;
  }
  std::string_view prefix = code.substr(start, pos - start);
  while (!prefix.empty() && prefix.front() == ' ') prefix.remove_prefix(1);
  while (!prefix.empty() && prefix.back() == ' ') prefix.remove_suffix(1);
  if (prefix.empty()) return true;
  if (prefix == "return") return false;
  if (prefix.find_first_of("=(!<>,?&|") != std::string_view::npos) {
    return false;
  }
  if (prefix.find(' ') != std::string_view::npos) return false;
  return true;
}

bool match_any(std::string_view code, std::string_view include_header,
               const Needle* needles, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const Needle& n = needles[i];
    if (n.token ? contains_token(code, n.text) : contains(code, n.text)) {
      return true;
    }
  }
  return !include_header.empty() && contains(code, "#include") &&
         contains(code, include_header);
}

/// True when `spec` (a printf conversion starting at '%') is a
/// floating-point conversion other than the round-trip "%.17g".
/// Returns the matched spec length via *len (0 if not a float conversion).
bool lossy_float_spec(std::string_view s, std::size_t* len) {
  *len = 0;
  if (s.empty() || s[0] != '%') return false;
  std::size_t i = 1;
  if (i < s.size() && s[i] == '%') {
    *len = 2;
    return false;
  }
  static constexpr std::string_view kSpecChars = "-+ #0123456789.*lhLqjzt";
  while (i < s.size() && kSpecChars.find(s[i]) != std::string_view::npos) ++i;
  if (i >= s.size()) return false;
  const char conv = s[i];
  *len = i + 1;
  static constexpr std::string_view kFloatConvs = "fFeEgGaA";
  if (kFloatConvs.find(conv) == std::string_view::npos) return false;
  return s.substr(0, *len) != "%.17g";
}

/// Detects a `Mutex <identifier>;` member declaration (excluding
/// MutexLock and constructor calls).
bool declares_mutex_member(std::string_view code) {
  std::size_t pos = 0;
  while ((pos = code.find("Mutex", pos)) != std::string_view::npos) {
    const std::size_t after = pos + 5;
    if (pos > 0 && is_ident_char(code[pos - 1])) {
      pos = after;
      continue;
    }
    std::size_t i = after;
    if (i < code.size() && is_ident_char(code[i])) {  // MutexLock etc.
      pos = after;
      continue;
    }
    while (i < code.size() && code[i] == ' ') ++i;
    std::size_t ident = i;
    while (i < code.size() && is_ident_char(code[i])) ++i;
    if (i == ident) {
      pos = after;
      continue;
    }
    while (i < code.size() && code[i] == ' ') ++i;
    if (i < code.size() && code[i] == ';') return true;
    pos = after;
  }
  return false;
}

bool valid_span_name(std::string_view name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
           c == '.';
  });
}

class FileScan {
 public:
  FileScan(std::string_view path, std::string_view content)
      : path_(path), info_(classify(path)), lines_(lex(content)) {}

  std::vector<Finding> run() {
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      scan_line(i + 1, lines_[i]);
    }
    finish_file_checks();
    return std::move(findings_);
  }

 private:
  void add(std::string_view code, Severity severity, std::size_t line_no,
           const Suppressions& allowed, std::string message,
           std::string hint = "") {
    if (std::find(allowed.codes.begin(), allowed.codes.end(), code) !=
        allowed.codes.end()) {
      return;
    }
    findings_.push_back(Finding{std::string(code), severity, path_, line_no,
                                std::move(message), std::move(hint)});
  }

  void scan_line(std::size_t line_no, const Line& line) {
    const std::string& code = line.code;
    const Suppressions allowed = parse_suppressions(line.raw);
    if (allowed.bare) {
      findings_.push_back(Finding{
          std::string(kBareSuppression), Severity::kError, path_, line_no,
          "suppression without a justification",
          "write `// adml-lint: "
          "allow(DNNN why this is safe)`"});
    }
    const bool is_define = contains(code, "#define");

    // D001: nondeterministic randomness outside util::rng.
    if (!info_.is_util_rng &&
        match_any(code, "<random>", kRandomNeedles.data(),
                  kRandomNeedles.size())) {
      if (contains(code, "#include")) {
        if (contains(code, "<random>")) {
          add(kRandomHeader, Severity::kWarning, line_no, allowed,
              "<random> included outside util::rng",
              "draw from util::Rng so fixed-seed replay stays exact");
        }
      } else {
        add(kNondetRandom, Severity::kError, line_no, allowed,
            "nondeterministic randomness source outside util::rng",
            "derive an explicit util::Rng (seeded, splittable) instead");
      }
    }

    // D002: wall-clock reads on deterministic paths.
    if (info_.deterministic &&
        match_any(code, "", kClockNeedles.data(), kClockNeedles.size())) {
      add(kWallClock, Severity::kError, line_no, allowed,
          "wall-clock read on a deterministic path",
          "simulated time must come from the event queue / evaluator "
          "ledger; real time belongs in src/obs or src/util only");
    }

    // D003: unordered containers where iteration order reaches output.
    if (info_.ordered) {
      const bool use = match_any(code, "", kUnorderedNeedles.data(),
                                 kUnorderedNeedles.size());
      const bool include =
          contains(code, "#include") && contains(code, "<unordered_");
      if (use || include) {
        add(kUnorderedContainer, Severity::kError, line_no, allowed,
            "std::unordered_* on a proposal/journal/export path",
            "iteration order is implementation-defined; use std::map / "
            "std::set (or justify a lookup-only use inline)");
      }
    }

    // D004: hand-rolled span events outside the tracer implementation.
    if (info_.in_src && !info_.is_obs) {
      const bool manual_record =
          (contains(code, ".record(") || contains(code, "->record(")) &&
          (contains(code, "'B'") || contains(code, "'E'"));
      if (manual_record || contains_token(code, "ScopedSpan")) {
        add(kManualSpanEvent, Severity::kError, line_no, allowed,
            "manual trace span event bypasses RAII balancing",
            "open spans with ADML_SPAN(\"name\") so every 'B' closes");
      }
    }

    // D005: lossy float formats in round-trip serialization files.
    if (info_.serialization) {
      for (const std::string& literal : line.strings) {
        std::string_view s = literal;
        std::size_t pos = 0;
        while ((pos = s.find('%', pos)) != std::string_view::npos) {
          std::size_t len = 0;
          if (lossy_float_spec(s.substr(pos), &len)) {
            add(kLossyFloatFormat, Severity::kError, line_no, allowed,
                "float serialized with a non-round-trip format (" +
                    std::string(s.substr(pos, len)) + ")",
                "use %.17g; journal replay depends on exact round-trips");
          }
          pos += len > 0 ? len : 1;
        }
      }
    }

    // D006: unannotated std locking primitives.
    if ((info_.in_src || info_.in_tools) && !info_.is_annotations) {
      const bool use = match_any(code, "", kRawMutexNeedles.data(),
                                 kRawMutexNeedles.size());
      const bool include =
          contains(code, "#include") &&
          (contains(code, "<mutex>") ||
           contains(code, "<condition_variable>") ||
           contains(code, "<shared_mutex>"));
      if (use || include) {
        add(kRawMutex, Severity::kError, line_no, allowed,
            "raw std locking primitive is invisible to -Wthread-safety",
            "use util::Mutex / util::MutexLock / util::CondVar from "
            "util/annotations.h and annotate the guarded members");
      }
    }

    // D010: ad-hoc thread spawning outside the concurrency layer.
    if ((info_.in_src || info_.in_tools) && !info_.is_util) {
      const bool use = match_any(code, "", kRawThreadNeedles.data(),
                                 kRawThreadNeedles.size());
      // <future> stays legal: std::future is ThreadPool::submit's return
      // type, so pool *consumers* hold futures without spawning anything.
      const bool include =
          contains(code, "#include") && contains(code, "<thread>");
      if (use || include) {
        add(kRawThread, Severity::kError, line_no, allowed,
            "raw std::thread/std::jthread/std::async outside src/util",
            "run the work on util::ThreadPool (or the async executor "
            "built on it): ad-hoc threads skip the pool's ordering and "
            "join guarantees and are invisible to -Wthread-safety");
      }
    }

    // D007 / D103: span name hygiene.
    if (!is_define) {
      for (const std::string_view macro :
           {std::string_view("ADML_SPAN("),
            std::string_view("ADML_TRACE_INSTANT(")}) {
        const std::size_t at = code.find(macro);
        if (at == std::string_view::npos) continue;
        std::size_t i = at + macro.size();
        while (i < code.size() && code[i] == ' ') ++i;
        if (i >= code.size() || code[i] != '"') {
          add(kNonLiteralSpanName, Severity::kError, line_no, allowed,
              "span name is not a string literal",
              "the tracer stores the pointer, not a copy; non-literal "
              "names dangle after export");
        } else if (!line.strings.empty() &&
                   !valid_span_name(line.strings.front())) {
          add(kBadSpanName, Severity::kWarning, line_no, allowed,
              "span name '" + line.strings.front() +
                  "' leaves the [a-z0-9_.] taxonomy",
              "keep span names short, stable, lowercase, dot-scoped "
              "(DESIGN.md 6f)");
        }
      }
    }

    // D009: durable-path IO whose result nobody looks at. A write or
    // fsync that "fails silently" here is exactly the corruption the
    // chaos harness exists to rule out.
    if (info_.durable && !is_define) {
      for (const std::string_view needle : kDurableIoNeedles) {
        std::size_t pos = 0;
        while ((pos = code.find(needle, pos)) != std::string_view::npos) {
          if (unchecked_io_call(code, pos)) {
            add(kUncheckedIo, Severity::kError, line_no, allowed,
                "unchecked return of durable IO call (" +
                    std::string(needle.substr(0, needle.size() - 1)) + ")",
                "check the result and surface a typed IoError with the "
                "path, or discard explicitly with (void) and justify");
            break;  // one finding per call site is enough
          }
          pos += needle.size();
        }
      }
    }

    // D102 candidates: Mutex members (resolved at end of file).
    if (info_.in_src && !info_.is_annotations &&
        declares_mutex_member(code)) {
      mutex_members_.push_back({line_no, allowed});
    }

    // D104: std::endl flushes on every use.
    if (info_.in_src && contains(code, "std::endl")) {
      add(kEndlFlush, Severity::kWarning, line_no, allowed,
          "std::endl flushes the stream on every use",
          "write '\\n' and flush once at the end");
    }

    if (contains(code, "ADML_GUARDED_BY")) file_has_guarded_by_ = true;
  }

  void finish_file_checks() {
    if (file_has_guarded_by_) return;
    for (const auto& [line_no, allowed] : mutex_members_) {
      add(kUnguardedMutexMember, Severity::kWarning, line_no, allowed,
          "Mutex member but no ADML_GUARDED_BY in this file",
          "annotate the members the mutex protects (or justify inline if "
          "it guards a resource, not data)");
    }
  }

  std::string path_;
  PathInfo info_;
  std::vector<Line> lines_;
  std::vector<std::pair<std::size_t, Suppressions>> mutex_members_;
  bool file_has_guarded_by_ = false;
  std::vector<Finding> findings_;
};

}  // namespace

std::string_view to_string(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

std::string Finding::to_string() const {
  std::ostringstream out;
  out << path << ":" << line << ": " << code << " "
      << adml_lint::to_string(severity) << ": " << message;
  if (!hint.empty()) out << "; hint: " << hint;
  return out.str();
}

std::vector<CheckInfo> check_catalog() {
  return {
      {kNondetRandom, Severity::kError,
       "randomness source outside util::rng (std::rand, random_device, "
       "std engines)"},
      {kWallClock, Severity::kError,
       "wall-clock read on a deterministic path (core/gp/sim/...)"},
      {kUnorderedContainer, Severity::kError,
       "std::unordered_* on a proposal/journal/export path"},
      {kManualSpanEvent, Severity::kError,
       "manual 'B'/'E' trace events or raw ScopedSpan outside src/obs"},
      {kLossyFloatFormat, Severity::kError,
       "float format other than %.17g in round-trip serialization files"},
      {kRawMutex, Severity::kError,
       "raw std::mutex/condition_variable/lock outside util/annotations.h"},
      {kNonLiteralSpanName, Severity::kError,
       "ADML_SPAN / ADML_TRACE_INSTANT name is not a string literal"},
      {kBareSuppression, Severity::kError,
       "adml-lint: "
       "allow(...) without a justification"},
      {kUncheckedIo, Severity::kError,
       "unchecked write/fsync/rename/close return on a durability path "
       "(util/fs, core/session_io)"},
      {kRawThread, Severity::kError,
       "std::thread/std::jthread/std::async (or #include <thread>) outside "
       "src/util"},
      {kRandomHeader, Severity::kWarning,
       "#include <random> outside util::rng"},
      {kUnguardedMutexMember, Severity::kWarning,
       "Mutex member in a file with no ADML_GUARDED_BY annotation"},
      {kBadSpanName, Severity::kWarning,
       "span name outside the [a-z0-9_.] taxonomy"},
      {kEndlFlush, Severity::kWarning, "std::endl (flushes on every use)"},
  };
}

std::vector<Finding> scan_file(std::string_view path,
                               std::string_view content) {
  return FileScan(path, content).run();
}

namespace {

bool scannable(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

bool skip_dir(const std::filesystem::path& p) {
  const std::string name = p.filename().string();
  return name.empty() || name.front() == '.' ||
         name.rfind("build", 0) == 0;
}

}  // namespace

std::vector<Finding> scan_paths(const std::vector<std::string>& roots,
                                std::string* error) {
  namespace fs = std::filesystem;
  std::vector<Finding> findings;
  std::vector<fs::path> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      files.emplace_back(root);
      continue;
    }
    if (!fs::is_directory(root, ec)) {
      if (error != nullptr) {
        *error += "not a file or directory: " + root + "\n";
      }
      continue;
    }
    fs::recursive_directory_iterator it(root, ec);
    const fs::recursive_directory_iterator end;
    for (; it != end; it.increment(ec)) {
      if (ec) break;
      if (it->is_directory() && skip_dir(it->path())) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && scannable(it->path())) {
        files.push_back(it->path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      if (error != nullptr) {
        *error += "unreadable: " + file.string() + "\n";
      }
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    std::vector<Finding> file_findings =
        scan_file(file.generic_string(), buf.str());
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }
  // File-level checks (D102) report out of line order within a file.
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.code) <
                     std::tie(b.path, b.line, b.code);
            });
  return findings;
}

bool has_errors(const std::vector<Finding>& findings) {
  return std::any_of(findings.begin(), findings.end(), [](const Finding& f) {
    return f.severity == Severity::kError;
  });
}

}  // namespace adml_lint
