// Corruption-resistance tests for the persistence formats (roadmap v2,
// environment v2) and the strict command-line flag parser: malformed,
// truncated or bit-flipped input must yield a clean error code — never a
// crash, never a silently wrong object.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "env/builders.hpp"
#include "env/env_io.hpp"
#include "planner/prm.hpp"
#include "planner/roadmap_io.hpp"
#include "util/args.hpp"

namespace pmpl {
namespace {

std::string serialized_roadmap() {
  const auto e = env::small_cube();
  planner::Prm prm(*e);
  prm.build(300, 7);
  std::stringstream buffer;
  EXPECT_TRUE(planner::save_roadmap(prm.roadmap(), buffer));
  return buffer.str();
}

std::string serialized_env() {
  const auto e = env::med_cube();
  std::stringstream buffer;
  EXPECT_TRUE(env::save_environment(*e, buffer));
  return buffer.str();
}

// --- roadmap format version 2 ----------------------------------------------

TEST(RoadmapHardening, WritesVersionTwoWithChecksumFooter) {
  const std::string text = serialized_roadmap();
  EXPECT_EQ(text.rfind("pmpl-roadmap 2\n", 0), 0u);
  EXPECT_NE(text.find("\ncounts "), std::string::npos);
  EXPECT_NE(text.find("\nchecksum "), std::string::npos);
}

TEST(RoadmapHardening, RoundTripThroughVersionTwo) {
  const std::string text = serialized_roadmap();
  std::stringstream in(text);
  IoStatus status = IoStatus::kMalformed;
  const auto loaded = planner::load_roadmap(in, &status);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(status, IoStatus::kOk);
  EXPECT_GT(loaded->num_vertices(), 0u);
}

TEST(RoadmapHardening, TruncationAtEveryBoundaryIsRejected) {
  const std::string text = serialized_roadmap();
  ASSERT_GT(text.size(), 64u);
  for (std::size_t n = 0; n < text.size(); n += 64) {
    // A prefix missing only the final newline is complete data; every
    // shorter prefix must be rejected with a status.
    if (n == text.size() - 1) continue;
    std::stringstream in(text.substr(0, n));
    IoStatus status = IoStatus::kOk;
    const auto loaded = planner::load_roadmap(in, &status);
    EXPECT_FALSE(loaded.has_value()) << "prefix of " << n << " bytes loaded";
    EXPECT_NE(status, IoStatus::kOk) << "prefix of " << n << " bytes";
  }
}

TEST(RoadmapHardening, BitFlipsAreRejected) {
  const std::string text = serialized_roadmap();
  for (std::size_t pos = 0; pos + 1 < text.size(); pos += 7) {
    std::string mutated = text;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x10);
    std::stringstream in(mutated);
    IoStatus status = IoStatus::kOk;
    const auto loaded = planner::load_roadmap(in, &status);
    EXPECT_FALSE(loaded.has_value()) << "bit flip at byte " << pos;
    EXPECT_NE(status, IoStatus::kOk) << "bit flip at byte " << pos;
  }
}

TEST(RoadmapHardening, PreciseStatusCodes) {
  const auto status_of = [](const std::string& text) {
    std::stringstream in(text);
    IoStatus status = IoStatus::kOk;
    EXPECT_FALSE(planner::load_roadmap(in, &status).has_value());
    return status;
  };
  EXPECT_EQ(status_of("not-a-roadmap 2\n"), IoStatus::kBadMagic);
  EXPECT_EQ(status_of("pmpl-roadmap 99\n"), IoStatus::kBadVersion);
  EXPECT_EQ(status_of("pmpl-roadmap 2\ncounts 0 0\n"), IoStatus::kTruncated);
  EXPECT_EQ(status_of("pmpl-roadmap 2\ncounts 0 0\nchecksum zz\n"),
            IoStatus::kMalformed);
  EXPECT_EQ(status_of("pmpl-roadmap 2\ncounts 0 0\nchecksum 0 junk\n"),
            IoStatus::kMalformed);
  EXPECT_EQ(status_of("pmpl-roadmap 2\ncounts 0 0\nchecksum 0\n"),
            IoStatus::kChecksumMismatch);
  // Wrong declared counts with a correct checksum: count mismatch.
  {
    const std::string body = "counts 1 0\n";
    std::ostringstream os;
    os << "pmpl-roadmap 2\n" << body << "checksum " << std::hex
       << fnv1a64(body.data(), body.size()) << "\n";
    EXPECT_EQ(status_of(os.str()), IoStatus::kCountMismatch);
  }
  // Config dimension above the compile-time maximum: out of range.
  {
    const std::string body = "counts 1 0\nv 0 99 1.0\n";
    std::ostringstream os;
    os << "pmpl-roadmap 2\n" << body << "checksum " << std::hex
       << fnv1a64(body.data(), body.size()) << "\n";
    EXPECT_EQ(status_of(os.str()), IoStatus::kOutOfRange);
  }
}

TEST(RoadmapHardening, LegacyVersionOneStillLoads) {
  std::stringstream in(
      "pmpl-roadmap 1\n"
      "v 0 3 1.0 2.0 3.0\n"
      "v 1 3 4.0 5.0 6.0\n"
      "e 0 1 5.196\n");
  IoStatus status = IoStatus::kMalformed;
  const auto loaded = planner::load_roadmap(in, &status);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(status, IoStatus::kOk);
  EXPECT_EQ(loaded->num_vertices(), 2u);
  EXPECT_EQ(loaded->num_edges(), 1u);
}

TEST(RoadmapHardening, FileRoundTripIsAtomicAndClean) {
  const std::string path = ::testing::TempDir() + "roadmap_hardening.txt";
  const auto e = env::small_cube();
  planner::Prm prm(*e);
  prm.build(200, 9);
  ASSERT_TRUE(planner::save_roadmap_file(prm.roadmap(), path));
  {
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << "temporary file left behind";
  }
  IoStatus status = IoStatus::kMalformed;
  const auto loaded = planner::load_roadmap_file(path, &status);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(status, IoStatus::kOk);
  EXPECT_EQ(loaded->num_vertices(), prm.roadmap().num_vertices());
  std::remove(path.c_str());

  IoStatus missing = IoStatus::kOk;
  EXPECT_FALSE(planner::load_roadmap_file(path, &missing).has_value());
  EXPECT_EQ(missing, IoStatus::kOpenFailed);
}

// --- environment format version 2 -------------------------------------------

TEST(EnvHardening, WritesVersionTwoWithChecksumFooter) {
  const std::string text = serialized_env();
  EXPECT_EQ(text.rfind("pmpl-env 2\n", 0), 0u);
  EXPECT_NE(text.find("\nchecksum "), std::string::npos);
}

TEST(EnvHardening, TruncationAtEveryBoundaryIsRejected) {
  const std::string text = serialized_env();
  ASSERT_GT(text.size(), 64u);
  for (std::size_t n = 0; n < text.size(); n += 64) {
    if (n == text.size() - 1) continue;
    std::stringstream in(text.substr(0, n));
    IoStatus status = IoStatus::kOk;
    const auto loaded = env::load_environment(in, &status);
    EXPECT_FALSE(loaded.has_value()) << "prefix of " << n << " bytes loaded";
    EXPECT_NE(status, IoStatus::kOk) << "prefix of " << n << " bytes";
  }
}

TEST(EnvHardening, BitFlipsAreRejected) {
  const std::string text = serialized_env();
  for (std::size_t pos = 0; pos + 1 < text.size(); pos += 5) {
    std::string mutated = text;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x10);
    std::stringstream in(mutated);
    IoStatus status = IoStatus::kOk;
    const auto loaded = env::load_environment(in, &status);
    EXPECT_FALSE(loaded.has_value()) << "bit flip at byte " << pos;
    EXPECT_NE(status, IoStatus::kOk) << "bit flip at byte " << pos;
  }
}

TEST(EnvHardening, StrictModeRejectsCommentsAndBlanks) {
  IoStatus status = IoStatus::kOk;
  {
    std::stringstream in("pmpl-env 2\n# comment\nspace se3 0 0 0 1 1 1\n");
    EXPECT_FALSE(env::load_environment(in, &status).has_value());
    EXPECT_EQ(status, IoStatus::kMalformed);
  }
  {
    std::stringstream in("pmpl-env 2\nspace se3 0 0 0 1 1 1\n");  // no footer
    EXPECT_FALSE(env::load_environment(in, &status).has_value());
    EXPECT_EQ(status, IoStatus::kTruncated);
  }
}

TEST(EnvHardening, LegacyVersionOneWithCommentsStillLoads) {
  std::stringstream in(
      "pmpl-env 1\n"
      "# hand-written scene, no checksum\n"
      "\n"
      "name legacy\n"
      "space se3 0 0 0 10 10 10\n"
      "robot sphere 0.5\n"
      "sphere 5 5 5 2\n");
  IoStatus status = IoStatus::kMalformed;
  const auto loaded = env::load_environment(in, &status);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(status, IoStatus::kOk);
  EXPECT_EQ((*loaded)->name(), "legacy");
  EXPECT_EQ((*loaded)->checker().obstacle_count(), 1u);
}

TEST(EnvHardening, FileRoundTripRestoresScene) {
  const std::string path = ::testing::TempDir() + "env_hardening.txt";
  const auto original = env::walls(false);
  ASSERT_TRUE(env::save_environment_file(*original, path));
  IoStatus status = IoStatus::kMalformed;
  const auto loaded = env::load_environment_file(path, &status);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(status, IoStatus::kOk);
  EXPECT_EQ((*loaded)->name(), original->name());
  EXPECT_EQ((*loaded)->checker().obstacle_count(),
            original->checker().obstacle_count());
  std::remove(path.c_str());
}

// --- strict flag parsing ----------------------------------------------------

ArgParser make_args(std::initializer_list<const char*> argv_tail) {
  static std::vector<const char*> argv;
  argv.clear();
  argv.push_back("prog");
  for (const char* a : argv_tail) argv.push_back(a);
  return ArgParser(static_cast<int>(argv.size()),
                   const_cast<char**>(argv.data()));
}

TEST(ArgsStrict, AcceptsWellFormedValues) {
  const auto args = make_args({"--n", "42", "--x=2.5", "--flag", "--on", "yes"});
  EXPECT_EQ(args.get_i64("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_f64("x", 0.0), 2.5);
  EXPECT_TRUE(args.get_bool("flag"));
  EXPECT_TRUE(args.get_bool("on"));
  EXPECT_EQ(args.get_i64("absent", 7), 7);
  args.reject_unknown();  // every flag given was read: returns
}

TEST(ArgsStrictDeathTest, RejectsTrailingGarbageInteger) {
  const auto args = make_args({"--n", "10x"});
  EXPECT_EXIT(args.get_i64("n", 0), ::testing::ExitedWithCode(2),
              "flag --n.*not a valid integer");
}

TEST(ArgsStrictDeathTest, RejectsTrailingGarbageFloat) {
  const auto args = make_args({"--x", "1.5.2"});
  EXPECT_EXIT(args.get_f64("x", 0.0), ::testing::ExitedWithCode(2),
              "flag --x.*not a valid number");
}

TEST(ArgsStrictDeathTest, RejectsOutOfRangeValue) {
  const auto args = make_args({"--procs", "0"});
  EXPECT_EXIT(args.get_i64("procs", 1, 1, 4096),
              ::testing::ExitedWithCode(2),
              "flag --procs.*outside permitted range");
}

TEST(ArgsStrictDeathTest, RejectsOverflowingInteger) {
  const auto args = make_args({"--n", "99999999999999999999999"});
  EXPECT_EXIT(args.get_i64("n", 0), ::testing::ExitedWithCode(2),
              "flag --n.*out of range");
}

TEST(ArgsStrictDeathTest, RejectsBadBoolean) {
  const auto args = make_args({"--resume", "maybe"});
  EXPECT_EXIT(args.get_bool("resume"), ::testing::ExitedWithCode(2),
              "flag --resume.*not a valid boolean");
}

TEST(ArgsStrictDeathTest, RejectsNanFloat) {
  const auto args = make_args({"--x", "nan"});
  EXPECT_EXIT(args.get_f64("x", 0.0, 0.0, 100.0),
              ::testing::ExitedWithCode(2), "flag --x");
}

TEST(ArgsStrictDeathTest, RejectsFlagNoLookupRead) {
  const auto args = make_args({"--procs", "64", "--proc=32", "--seed", "3"});
  EXPECT_EQ(args.get_i64("procs", 1), 64);
  EXPECT_EQ(args.get_i64("seed", 0), 3);
  EXPECT_EQ(args.get_i64("absent", 7), 7);
  EXPECT_EXIT(args.reject_unknown(), ::testing::ExitedWithCode(2),
              "unknown flag --proc\n");
}

}  // namespace
}  // namespace pmpl
