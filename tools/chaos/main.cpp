// adml-chaos: randomized kill-point resume harness for the tuner CLI.
//
// For each seed it first records a *reference* session: one uninterrupted
// `autodml_cli tune` run with a journal and a session file. It then starts
// fresh chaos sessions against the same options and repeatedly kills the
// child at a randomized crash-point hit (ADML_CRASH_AFTER=k, exit code 86
// — see util/chaos.h), resuming from the journal after every kill, until
// the session completes. A completed chaos session must leave a journal
// and a session file byte-identical to the reference: resume-by-replay is
// only crash-safe if an arbitrarily interrupted run converges to exactly
// the uninterrupted result.
//
//   adml-chaos --cli=PATH [--workload=W] [--evals=N] [--seeds=1,2,3]
//              [--target-cycles=200] [--max-kill-hit=60]
//              [--workdir=DIR] [--chaos-seed=S] [--refit-every=K]
//              [--async-q=Q] [--acquisition=A]
//
// Exit 0 when --target-cycles kill/resume cycles all recovered and every
// completed session matched its reference; nonzero (with the offending
// seed and files preserved in --workdir) otherwise. The default budget of
// 200 cycles across 3 seeds is what CI runs; the ctest smoke registration
// uses a reduced budget.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "util/arg_parse.h"
#include "util/chaos.h"
#include "util/fs.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace {

namespace fs = std::filesystem;

/// Run `command` through the shell; returns the child's exit code, or -1
/// when it died on a signal / could not be spawned.
int run(const std::string& command) {
  const int status = std::system(command.c_str());
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

struct SessionPaths {
  std::string journal;
  std::string session;
};

struct TuneFlags {
  std::string workload;
  int evals = 10;
  int refit_every = 1;
  int async_q = 1;
  std::string acquisition;  // empty: the CLI's default
};

std::string tune_command(const std::string& cli, const TuneFlags& flags,
                         std::uint64_t seed, const SessionPaths& paths) {
  std::string command = cli + " tune --workload=" + flags.workload +
                        " --evals=" + std::to_string(flags.evals) +
                        " --seed=" + std::to_string(seed) +
                        " --refit-every=" + std::to_string(flags.refit_every);
  // A session must resume with the options it was written with, so these
  // flags go on every child invocation (reference, kill, and resume).
  if (flags.async_q > 1) {
    command += " --async-q=" + std::to_string(flags.async_q);
  }
  if (!flags.acquisition.empty()) {
    command += " --acquisition=" + flags.acquisition;
  }
  return command + " --journal=" + paths.journal +
         " --session=" + paths.session + " >/dev/null 2>&1";
}

bool files_identical(const std::string& a, const std::string& b,
                     std::string* detail) {
  const std::string ca = autodml::util::read_file(a);
  const std::string cb = autodml::util::read_file(b);
  if (ca == cb) return true;
  *detail = a + " (" + std::to_string(ca.size()) + " bytes) vs " + b + " (" +
            std::to_string(cb.size()) + " bytes)";
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const autodml::util::ArgParser args(argc, argv);
  const std::string cli = args.get("cli", "");
  if (cli.empty()) {
    std::fprintf(stderr, "usage: adml-chaos --cli=PATH [--flags]\n");
    return 1;
  }
  TuneFlags flags;
  flags.workload = args.get("workload", "logreg-ads");
  flags.evals = static_cast<int>(args.get_int("evals", 10));
  flags.refit_every = static_cast<int>(args.get_int("refit-every", 1));
  flags.async_q = static_cast<int>(args.get_int("async-q", 1));
  flags.acquisition = args.get("acquisition", "");
  const int target_cycles =
      static_cast<int>(args.get_int("target-cycles", 200));
  const int max_kill_hit =
      static_cast<int>(args.get_int("max-kill-hit", 60));
  const std::string workdir = args.get("workdir", "chaos_workdir");
  autodml::util::Rng rng(
      static_cast<std::uint64_t>(args.get_int("chaos-seed", 20260808)));

  std::vector<std::uint64_t> seeds;
  for (const std::string& s :
       autodml::util::split(args.get("seeds", "1,2,3"), ',')) {
    seeds.push_back(std::strtoull(s.c_str(), nullptr, 10));
  }
  if (seeds.empty()) {
    std::fprintf(stderr, "adml-chaos: --seeds parsed to nothing\n");
    return 1;
  }

  std::error_code ec;
  fs::create_directories(workdir, ec);
  if (ec) {
    std::fprintf(stderr, "adml-chaos: cannot create %s: %s\n",
                 workdir.c_str(), ec.message().c_str());
    return 1;
  }

  // Phase 1: reference sessions, one uninterrupted run per seed.
  std::vector<SessionPaths> refs;
  std::vector<int> ref_exits;
  for (const std::uint64_t seed : seeds) {
    SessionPaths ref{workdir + "/ref_" + std::to_string(seed) + ".journal",
                     workdir + "/ref_" + std::to_string(seed) + ".session"};
    fs::remove(ref.journal, ec);
    fs::remove(ref.session, ec);
    const int code = run(tune_command(cli, flags, seed, ref));
    if (code != 0 && code != 2) {
      std::fprintf(stderr,
                   "adml-chaos: reference run (seed %llu) exited %d\n",
                   static_cast<unsigned long long>(seed), code);
      return 1;
    }
    refs.push_back(ref);
    ref_exits.push_back(code);
    std::printf("adml-chaos: reference for seed %llu recorded (exit %d)\n",
                static_cast<unsigned long long>(seed), code);
  }

  // Phase 2: chaos sessions, round-robin across seeds. Every child runs
  // with ADML_CRASH_AFTER=k for a fresh random k; exit 86 is an injected
  // kill (one survived resume cycle for the *next* child), any completion
  // must be byte-identical to the reference.
  int cycles = 0;
  int completed_sessions = 0;
  int runs = 0;
  // A child that draws k beyond its remaining crash-point hits simply
  // completes, so forward progress is certain; the cap only guards
  // against a regression that stops sessions from ever finishing.
  const int max_runs = target_cycles * 12 + 64;
  std::size_t which = 0;
  std::vector<SessionPaths> live(seeds.size());
  std::vector<bool> active(seeds.size(), false);
  while (cycles < target_cycles && runs < max_runs) {
    const std::size_t i = which % seeds.size();
    which += 1;
    if (!active[i]) {
      live[i] = {workdir + "/chaos_" + std::to_string(seeds[i]) + ".journal",
                 workdir + "/chaos_" + std::to_string(seeds[i]) + ".session"};
      fs::remove(live[i].journal, ec);
      fs::remove(live[i].session, ec);
      active[i] = true;
    }
    const auto kill_hit = rng.uniform_int(1, max_kill_hit + 1);
    const std::string command =
        "ADML_CRASH_AFTER=" + std::to_string(kill_hit) + " " +
        tune_command(cli, flags, seeds[i], live[i]);
    const int code = run(command);
    runs += 1;
    if (code == autodml::util::chaos::kCrashExitCode) {
      // Killed as requested; the next run on this seed is the resume that
      // must recover. Count the cycle once the resume itself survives —
      // i.e. now, for the previous kill, since we only get here if the
      // prior resume did not fail hard.
      cycles += 1;
      if (cycles % 25 == 0) {
        std::printf("adml-chaos: %d/%d kill/resume cycles (%d runs)\n",
                    cycles, target_cycles, runs);
      }
      continue;
    }
    if (code != ref_exits[i]) {
      std::fprintf(stderr,
                   "adml-chaos: seed %llu: chaos run exited %d, reference "
                   "exited %d (artifacts kept in %s)\n",
                   static_cast<unsigned long long>(seeds[i]), code,
                   ref_exits[i], workdir.c_str());
      return 1;
    }
    std::string detail;
    if (!files_identical(refs[i].journal, live[i].journal, &detail) ||
        !files_identical(refs[i].session, live[i].session, &detail)) {
      std::fprintf(stderr,
                   "adml-chaos: seed %llu: resumed session diverged from "
                   "the uninterrupted run: %s\n",
                   static_cast<unsigned long long>(seeds[i]), detail.c_str());
      return 1;
    }
    completed_sessions += 1;
    active[i] = false;  // start a fresh chaos session on this seed
  }

  if (cycles < target_cycles) {
    std::fprintf(stderr,
                 "adml-chaos: only %d/%d cycles after %d runs — sessions "
                 "are not completing\n",
                 cycles, target_cycles, runs);
    return 1;
  }

  // Drain: sessions still mid-flight (killed, not yet completed) must
  // resume to completion unarmed and match their reference, so that every
  // counted kill has a proven recovery behind it.
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    if (!active[i]) continue;
    const int code = run(tune_command(cli, flags, seeds[i], live[i]));
    runs += 1;
    std::string detail;
    if (code != ref_exits[i] ||
        !files_identical(refs[i].journal, live[i].journal, &detail) ||
        !files_identical(refs[i].session, live[i].session, &detail)) {
      std::fprintf(stderr,
                   "adml-chaos: seed %llu: drain resume failed (exit %d, "
                   "expected %d)%s%s\n",
                   static_cast<unsigned long long>(seeds[i]), code,
                   ref_exits[i], detail.empty() ? "" : ": ",
                   detail.c_str());
      return 1;
    }
    completed_sessions += 1;
  }
  std::printf(
      "adml-chaos: OK — %d kill/resume cycles, %d completed sessions, "
      "%d child runs, every completion bit-identical to its reference\n",
      cycles, completed_sessions, runs);
  return 0;
}
