#include "workload/trace_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "util/units.h"
#include "workload/suite.h"

namespace tetris::workload {
namespace {

sim::Workload sample_workload() {
  SuiteConfig cfg;
  cfg.num_jobs = 10;
  cfg.num_machines = 5;
  cfg.task_scale = 0.02;
  cfg.seed = 4;
  return make_suite_workload(cfg);
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const sim::Workload original = sample_workload();
  const sim::Workload parsed = trace_from_string(trace_to_string(original));
  ASSERT_EQ(parsed.jobs.size(), original.jobs.size());
  ASSERT_EQ(parsed.total_tasks(), original.total_tasks());
  for (std::size_t j = 0; j < original.jobs.size(); ++j) {
    const auto& a = original.jobs[j];
    const auto& b = parsed.jobs[j];
    EXPECT_EQ(a.name, b.name);
    EXPECT_DOUBLE_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.template_id, b.template_id);
    EXPECT_EQ(a.queue, b.queue);
    ASSERT_EQ(a.stages.size(), b.stages.size());
    for (std::size_t s = 0; s < a.stages.size(); ++s) {
      EXPECT_EQ(a.stages[s].deps, b.stages[s].deps);
      ASSERT_EQ(a.stages[s].tasks.size(), b.stages[s].tasks.size());
      for (std::size_t t = 0; t < a.stages[s].tasks.size(); ++t) {
        const auto& ta = a.stages[s].tasks[t];
        const auto& tb = b.stages[s].tasks[t];
        EXPECT_DOUBLE_EQ(ta.cpu_cycles, tb.cpu_cycles);
        EXPECT_DOUBLE_EQ(ta.peak_cores, tb.peak_cores);
        EXPECT_DOUBLE_EQ(ta.peak_mem, tb.peak_mem);
        EXPECT_DOUBLE_EQ(ta.output_bytes, tb.output_bytes);
        EXPECT_DOUBLE_EQ(ta.max_io_bw, tb.max_io_bw);
        ASSERT_EQ(ta.inputs.size(), tb.inputs.size());
        for (std::size_t i = 0; i < ta.inputs.size(); ++i) {
          EXPECT_DOUBLE_EQ(ta.inputs[i].bytes, tb.inputs[i].bytes);
          EXPECT_EQ(ta.inputs[i].from_stage, tb.inputs[i].from_stage);
          EXPECT_EQ(ta.inputs[i].replicas, tb.inputs[i].replicas);
        }
      }
    }
  }
}

TEST(TraceIo, DoubleRoundTripIsIdentity) {
  const std::string once = trace_to_string(sample_workload());
  const std::string twice = trace_to_string(trace_from_string(once));
  EXPECT_EQ(once, twice);
}

TEST(TraceIo, IgnoresCommentsAndBlankLines) {
  const std::string text =
      "# a comment\n"
      "\n"
      "job 5 -1 0 myjob\n"
      "# another\n"
      "stage map\n"
      "task 10 1 1073741824 0 104857600 0\n";
  const auto w = trace_from_string(text);
  ASSERT_EQ(w.jobs.size(), 1u);
  EXPECT_EQ(w.jobs[0].name, "myjob");
  EXPECT_EQ(w.jobs[0].arrival, 5);
}

TEST(TraceIo, ParsesSplitsWithReplicasAndShuffles) {
  const std::string text =
      "job 0 3 2 j\n"
      "stage map\n"
      "task 10 1 1073741824 0 104857600 1\n"
      "split 1000 -1 2 4 6\n"
      "stage reduce 0\n"
      "task 0 1 1073741824 0 104857600 1\n"
      "split 500 0\n";
  const auto w = trace_from_string(text);
  const auto& map_split = w.jobs[0].stages[0].tasks[0].inputs[0];
  EXPECT_EQ(map_split.replicas, (std::vector<sim::MachineId>{2, 4, 6}));
  EXPECT_EQ(map_split.from_stage, -1);
  const auto& red_split = w.jobs[0].stages[1].tasks[0].inputs[0];
  EXPECT_EQ(red_split.from_stage, 0);
  EXPECT_EQ(w.jobs[0].template_id, 3);
  EXPECT_EQ(w.jobs[0].queue, 2);
}

TEST(TraceIo, RejectsStageBeforeJob) {
  EXPECT_THROW(trace_from_string("stage s\n"), std::runtime_error);
}

TEST(TraceIo, RejectsTaskBeforeStage) {
  EXPECT_THROW(trace_from_string("job 0 -1 0 j\ntask 1 1 1 0 1 0\n"),
               std::runtime_error);
}

TEST(TraceIo, RejectsUnexpectedSplit) {
  EXPECT_THROW(trace_from_string("job 0 -1 0 j\nstage s\nsplit 1 -1\n"),
               std::runtime_error);
}

TEST(TraceIo, RejectsMissingSplits) {
  // Task declares 2 splits but only 1 follows.
  const std::string text =
      "job 0 -1 0 j\nstage s\ntask 1 1 1 0 1 2\nsplit 1 -1\n";
  EXPECT_THROW(trace_from_string(text), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownRecord) {
  EXPECT_THROW(trace_from_string("frobnicate 1 2 3\n"), std::runtime_error);
}

TEST(TraceIo, RejectsMalformedNumbers) {
  EXPECT_THROW(trace_from_string("job abc -1 0 j\nstage s\n"),
               std::runtime_error);
}

TEST(TraceIo, RejectsSemanticErrors) {
  // Parses fine but stage deps are out of range.
  const std::string text =
      "job 0 -1 0 j\nstage s 7\ntask 1 1 1 0 1 0\n";
  EXPECT_THROW(trace_from_string(text), std::runtime_error);
}

TEST(TraceIo, RejectsTrailingTokens) {
  const std::string ok = "job 0 -1 0 j\nstage s\ntask 1 1 1 0 1 1\nsplit 1 -1 0\n";
  EXPECT_NO_THROW(trace_from_string(ok));
  for (const std::string bad : {
           "job 0 -1 0 j extra\nstage s\ntask 1 1 1 0 1 0\n",
           "job 0 -1 0 j\nstage s 0 x\ntask 1 1 1 0 1 0\n",
           "job 0 -1 0 j\nstage s\ntask 1 1 1 0 1 0 junk\n",
           "job 0 -1 0 j\nstage s\ntask 1 1 1 0 1 1\nsplit 1 -1 0 x\n",
           "job 0 -1 0 j\nstage s\ntask 1 1 1 0 1 1\nsplit 1 -1 0x\n",
       }) {
    EXPECT_THROW(trace_from_string(bad), std::runtime_error) << bad;
  }
}

TEST(TraceIo, RejectsNonFiniteAndOutOfRangeNumbers) {
  for (const std::string field : {"nan", "inf", "-inf", "1e999", "+1"}) {
    const std::string text =
        "job 0 -1 0 j\nstage s\ntask " + field + " 1 1 0 1 0\n";
    EXPECT_THROW(trace_from_string(text), std::runtime_error) << field;
  }
  EXPECT_THROW(trace_from_string("job 0 99999999999 0 j\nstage s\n"
                                 "task 1 1 1 0 1 0\n"),
               std::runtime_error);
  EXPECT_THROW(trace_from_string("job 0 -1 0 j\nstage s 99999999999\n"
                                 "task 1 1 1 0 1 0\n"),
               std::runtime_error);
}

TEST(TraceIo, RejectsEmptyTrace) {
  EXPECT_THROW(trace_from_string(""), std::runtime_error);
  EXPECT_THROW(trace_from_string("# just a comment\n\n"), std::runtime_error);
  EXPECT_THROW(trace_from_string(trace_to_string(sim::Workload{})),
               std::runtime_error);
}

TEST(TraceIo, ChecksHeaderCounts) {
  const std::string body = "job 0 -1 0 j\nstage s\ntask 1 1 1 0 1 0\n";
  EXPECT_NO_THROW(
      trace_from_string("# tetris trace v1: 1 jobs, 1 tasks\n" + body));
  EXPECT_NO_THROW(trace_from_string(
      "# tetris trace v1: 1 jobs, 1 stages, 1 tasks\n" + body));
  EXPECT_THROW(trace_from_string(
                   "# tetris trace v1: 1 jobs, 2 stages, 1 tasks\n" + body),
               std::runtime_error);
  EXPECT_THROW(trace_from_string(
                   "# tetris trace v1: 1 jobs, 1 stage, 1 tasks\n" + body),
               std::runtime_error);
  EXPECT_THROW(
      trace_from_string("# tetris trace v1: 2 jobs, 1 tasks\n" + body),
      std::runtime_error);
  EXPECT_THROW(
      trace_from_string("# tetris trace v1: 1 jobs, 3 tasks\n" + body),
      std::runtime_error);
  EXPECT_THROW(trace_from_string("# tetris trace v1: lots of jobs\n" + body),
               std::runtime_error);
}

TEST(TraceIo, DroppedStageLineIsRejected) {
  // The second stage's line lost: its task merges into the first stage,
  // which only the header's stage count can tell.
  const std::string body =
      "job 0 -1 0 j\nstage a\ntask 1 1 1 0 1 0\n"
      "task 1 1 1 0 1 0\n";
  EXPECT_THROW(trace_from_string(
                   "# tetris trace v1: 1 jobs, 2 stages, 2 tasks\n" + body),
               std::runtime_error);
  // The old two-count header still reads, and cannot tell.
  EXPECT_NO_THROW(
      trace_from_string("# tetris trace v1: 1 jobs, 2 tasks\n" + body));
}

TEST(TraceIo, RejectsNamesTheReaderCannotTokenize) {
  sim::Workload w = sample_workload();
  w.jobs[0].name = "two words";
  EXPECT_THROW(trace_to_string(w), std::invalid_argument);
  // Empty names are written as "-" and read back empty.
  w.jobs[0].name.clear();
  EXPECT_EQ(trace_from_string(trace_to_string(w)).jobs[0].name, "");
}

// A small trace that still has every record kind: multi-stage jobs,
// tasks with and without input splits, shuffle splits.
std::string small_trace() {
  SuiteConfig cfg;
  cfg.num_jobs = 2;
  cfg.num_machines = 3;
  cfg.task_scale = 0.01;
  cfg.seed = 9;
  return trace_to_string(make_suite_workload(cfg));
}

TEST(TraceIo, TruncationAtEveryPrefixIsRejected) {
  const std::string full = small_trace();
  ASSERT_NE(full.find("\nsplit "), std::string::npos);
  ASSERT_NO_THROW(trace_from_string(full));
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_THROW(trace_from_string(full.substr(0, cut)), std::runtime_error)
        << "prefix of " << cut << " of " << full.size() << " bytes accepted";
  }
}

TEST(TraceIo, PerLineCorruptionIsRejected) {
  const std::string full = small_trace();
  std::vector<std::string> lines;
  std::istringstream is(full);
  for (std::string l; std::getline(is, l);) lines.push_back(l);
  const auto with_line = [&](std::size_t i, const std::string& repl) {
    std::string out;
    for (std::size_t k = 0; k < lines.size(); ++k)
      out += (k == i ? repl : lines[k]) + "\n";
    return out;
  };
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& l = lines[i];
    SCOPED_TRACE("line " + std::to_string(i + 1) + ": " + l);
    EXPECT_THROW(trace_from_string(with_line(i, l + " junk")),
                 std::runtime_error);
    if (l[0] == '#') continue;
    // A dropped job, stage, task or split line shifts the header counts
    // or the split bookkeeping.
    {
      std::string dropped;
      for (std::size_t k = 0; k < lines.size(); ++k)
        if (k != i) dropped += lines[k] + "\n";
      EXPECT_THROW(trace_from_string(dropped), std::runtime_error);
    }
    // Every numeric field, replaced by garbage or a non-finite value.
    std::istringstream ls(l);
    std::vector<std::string> tok;
    for (std::string t; ls >> t;) tok.push_back(t);
    for (std::size_t f = 1; f < tok.size(); ++f) {
      if (tok[0] == "job" && f == 4) continue;    // the name
      if (tok[0] == "stage" && f == 1) continue;  // the name
      for (const char* bad : {"x", "nan", "1e999"}) {
        std::string corrupt = tok[0];
        for (std::size_t k = 1; k < tok.size(); ++k)
          corrupt += " " + (k == f ? std::string(bad) : tok[k]);
        EXPECT_THROW(trace_from_string(with_line(i, corrupt)),
                     std::runtime_error)
            << corrupt;
      }
    }
  }
}

TEST(TraceIo, FileRoundTrip) {
  const auto path =
      std::filesystem::temp_directory_path() / "tetris_trace_test.txt";
  const sim::Workload original = sample_workload();
  ASSERT_TRUE(write_trace_file(path.string(), original));
  const sim::Workload parsed = read_trace_file(path.string());
  EXPECT_EQ(parsed.total_tasks(), original.total_tasks());
  std::filesystem::remove(path);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/path/trace.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace tetris::workload
