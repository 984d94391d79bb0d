// Tests for the data archive: field roundtrips, index/meta parsing, error
// handling, and restart's step selection and checks. That a run saved at
// step k and restarted continues bit-for-bit identically to an
// uninterrupted run is a row of test_contracts.cc.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "apps/burgers/burgers_app.h"
#include "io/archive.h"
#include "runtime/controller.h"
#include "support/rng.h"

namespace usw::io {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Archive, FieldRoundtripIsBitExact) {
  TempDir dir("usw_archive_roundtrip");
  Archive ar(dir.path());
  var::CCVariable<double> field(grid::Box{{-1, -1, -1}, {9, 7, 5}});
  SplitMix64 rng(77);
  for (double& x : field.data()) x = rng.next_in(-1e30, 1e30);
  ar.write_field(3, "u", 12, field);
  const var::CCVariable<double> back = ar.read_field(3, "u", 12);
  ASSERT_EQ(back.box(), field.box());
  for (std::size_t i = 0; i < field.data().size(); ++i)
    ASSERT_EQ(back.data()[i], field.data()[i]);
}

TEST(Archive, IndexRoundtrip) {
  TempDir dir("usw_archive_index");
  Archive ar(dir.path());
  ArchiveIndex index;
  index.patch_layout = {8, 8, 2};
  index.patch_size = {16, 16, 512};
  index.labels = {"u", "temperature"};
  ar.write_index(index);
  const ArchiveIndex back = ar.read_index();
  EXPECT_EQ(back.patch_layout, index.patch_layout);
  EXPECT_EQ(back.patch_size, index.patch_size);
  EXPECT_EQ(back.labels, index.labels);
}

TEST(Archive, StepMetaRoundtripPreservesDoubles) {
  TempDir dir("usw_archive_meta");
  Archive ar(dir.path());
  const StepMeta meta{7, 0.1234567890123456789, 1.0 / 3.0};
  ar.write_step_meta(meta);
  const StepMeta back = ar.read_step_meta(7);
  EXPECT_EQ(back.step, 7);
  EXPECT_EQ(back.time, meta.time);  // 17 significant digits roundtrip
  EXPECT_EQ(back.dt, meta.dt);
  EXPECT_TRUE(ar.has_step(7));
  EXPECT_FALSE(ar.has_step(8));
}

TEST(Archive, LatestStep) {
  TempDir dir("usw_archive_latest");
  Archive ar(dir.path());
  EXPECT_FALSE(ar.latest_step().has_value());
  ar.write_step_meta(StepMeta{2, 0.1, 0.05});
  ar.write_step_meta(StepMeta{5, 0.3, 0.05});
  ASSERT_TRUE(ar.latest_step().has_value());
  EXPECT_EQ(*ar.latest_step(), 5);
}

TEST(Archive, MissingAndCorruptFilesThrow) {
  TempDir dir("usw_archive_errors");
  Archive ar(dir.path());
  EXPECT_THROW(ar.read_index(), Error);
  EXPECT_THROW(ar.read_step_meta(1), Error);
  EXPECT_THROW(ar.read_field(1, "u", 0), Error);
  // Truncated field file.
  fs::create_directories(dir.path() + "/step_1");
  std::ofstream(dir.path() + "/step_1/u_p0.bin") << "0 0 0 4 4 4\n";
  EXPECT_THROW(ar.read_field(1, "u", 0), Error);
}

runtime::RunConfig burgers_config(int steps) {
  runtime::RunConfig cfg;
  cfg.problem = runtime::tiny_problem({2, 2, 1}, {8, 8, 16});
  cfg.variant = runtime::variant_by_name("acc_simd.async");
  cfg.nranks = 2;
  cfg.timesteps = steps;
  cfg.storage = var::StorageMode::kFunctional;
  return cfg;
}

TEST(CheckpointRestart, ExplicitStepSelection) {
  TempDir dir("usw_restart_step");
  apps::burgers::BurgersApp app;
  runtime::RunConfig run = burgers_config(4);
  run.output_dir = dir.path();
  run.output_interval = 2;  // saves archive steps 2 and 4
  runtime::run_simulation(run, app);
  EXPECT_TRUE(Archive(dir.path()).has_step(2));
  EXPECT_TRUE(Archive(dir.path()).has_step(4));

  // Restart from step 2 and run 2 more: equals the 4-step reference.
  const double reference =
      runtime::run_simulation(burgers_config(4), app).ranks[0].metrics.at("linf_error");
  runtime::RunConfig resume = burgers_config(2);
  resume.restart_dir = dir.path();
  resume.restart_step = 2;
  EXPECT_EQ(runtime::run_simulation(resume, app).ranks[0].metrics.at("linf_error"),
            reference);
}

TEST(CheckpointRestart, DifferentRankCountOnRestart) {
  // The archive is rank-agnostic (keyed by patch): save with 2 ranks,
  // restart with 4.
  TempDir dir("usw_restart_ranks");
  apps::burgers::BurgersApp app;
  runtime::RunConfig first = burgers_config(3);
  first.output_dir = dir.path();
  first.output_interval = 3;
  runtime::run_simulation(first, app);

  const double reference =
      runtime::run_simulation(burgers_config(6), app).ranks[0].metrics.at("linf_error");
  runtime::RunConfig second = burgers_config(3);
  second.nranks = 4;
  second.restart_dir = dir.path();
  EXPECT_EQ(runtime::run_simulation(second, app).ranks[0].metrics.at("linf_error"),
            reference);
}

TEST(CheckpointRestart, MismatchedGridRejected) {
  TempDir dir("usw_restart_mismatch");
  apps::burgers::BurgersApp app;
  runtime::RunConfig first = burgers_config(2);
  first.output_dir = dir.path();
  first.output_interval = 2;
  runtime::run_simulation(first, app);

  runtime::RunConfig second = burgers_config(2);
  second.problem = runtime::tiny_problem({2, 2, 1}, {8, 8, 8});  // wrong size
  second.restart_dir = dir.path();
  EXPECT_THROW(runtime::run_simulation(second, app), ConfigError);
}

TEST(CheckpointRestart, ConfigValidation) {
  apps::burgers::BurgersApp app;
  runtime::RunConfig cfg = burgers_config(2);
  cfg.output_interval = 2;  // no output_dir
  EXPECT_THROW(runtime::run_simulation(cfg, app), ConfigError);
  cfg = burgers_config(2);
  cfg.output_dir = "/tmp/usw_never";
  cfg.output_interval = 1;
  cfg.storage = var::StorageMode::kTimingOnly;
  EXPECT_THROW(runtime::run_simulation(cfg, app), ConfigError);
  cfg = burgers_config(2);
  cfg.restart_dir = "/tmp/usw_does_not_exist_hopefully";
  EXPECT_THROW(runtime::run_simulation(cfg, app), Error);
}

}  // namespace
}  // namespace usw::io
