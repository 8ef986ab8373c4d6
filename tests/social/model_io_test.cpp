#include "s3/social/model_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "s3/trace/generator.h"
#include "s3/wlan/radio.h"

namespace s3::social {
namespace {

SocialIndexModel sample_model() {
  SocialModelConfig cfg;
  cfg.alpha = 0.25;
  cfg.events.co_leave_window = util::SimTime::from_minutes(5);
  cfg.events.min_encounter_overlap = util::SimTime::from_minutes(10);
  PairStore stats;
  stats.assign(UserPair(0, 1), {5, 3, 2});
  stats.assign(UserPair(2, 4), {2, 2, 0});
  UserTyping typing;
  typing.num_types = 2;
  typing.type_of_user = {0, 1, 0, 1, 0};
  typing.centroids.assign(2 * apps::kNumCategories, 0.1);
  typing.centroids[0] = 0.5;
  TypeCoLeaveMatrix matrix(2);
  matrix.set(0, 0, 0.6);
  matrix.set(1, 1, 0.4);
  matrix.set(0, 1, 0.1);
  return SocialIndexModel::from_parts(cfg, std::move(stats), std::move(typing),
                                      std::move(matrix));
}

TEST(ModelIo, RoundTripPreservesEverything) {
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  ASSERT_TRUE(write_model(ss, original));
  const ModelReadResult r = read_model(ss);
  ASSERT_TRUE(r.model.has_value()) << r.error;
  const SocialIndexModel& back = *r.model;

  EXPECT_DOUBLE_EQ(back.alpha(), original.alpha());
  EXPECT_EQ(back.config().events.co_leave_window,
            original.config().events.co_leave_window);
  EXPECT_EQ(back.num_users(), original.num_users());
  EXPECT_EQ(back.typing().num_types, original.typing().num_types);
  EXPECT_EQ(back.typing().type_of_user, original.typing().type_of_user);
  EXPECT_EQ(back.typing().centroids, original.typing().centroids);
  EXPECT_EQ(back.pair_stats().size(), original.pair_stats().size());
  for (UserId u = 0; u < 5; ++u) {
    for (UserId v = u + 1; v < 5; ++v) {
      EXPECT_DOUBLE_EQ(back.theta(u, v), original.theta(u, v))
          << "pair " << u << "," << v;
    }
  }
}

TEST(ModelIo, RoundTripTrainedModel) {
  trace::GeneratorConfig cfg;
  cfg.seed = 8;
  cfg.num_users = 150;
  cfg.num_days = 6;
  cfg.layout.num_buildings = 1;
  cfg.layout.aps_per_building = 5;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);
  std::vector<ApId> aps;
  wlan::RadioModel radio;
  for (const trace::SessionRecord& s : g.workload.sessions()) {
    aps.push_back(wlan::strongest_ap(g.network, radio, s.building, s.pos));
  }
  const SocialIndexModel trained =
      SocialIndexModel::train(g.workload.with_assignments(aps), {});

  std::stringstream ss;
  ASSERT_TRUE(write_model(ss, trained));
  const ModelReadResult r = read_model(ss);
  ASSERT_TRUE(r.model.has_value()) << r.error;
  EXPECT_EQ(r.model->pair_stats().size(), trained.pair_stats().size());
  // Spot-check thetas.
  for (UserId u = 0; u < 150; u += 17) {
    for (UserId v = u + 1; v < 150; v += 23) {
      EXPECT_DOUBLE_EQ(r.model->theta(u, v), trained.theta(u, v));
    }
  }
}

TEST(ModelIo, TrainedEndSurvivesRoundTrip) {
  SocialModelConfig cfg;
  cfg.trained_end_s = 2 * 86400;
  PairStore stats;
  stats.assign(UserPair(0, 1), {5, 3, 2});
  UserTyping typing;
  typing.num_types = 1;
  typing.type_of_user = {0, 0};
  typing.centroids.assign(apps::kNumCategories, 0.1);
  TypeCoLeaveMatrix matrix(1);
  matrix.set(0, 0, 0.5);
  const SocialIndexModel original = SocialIndexModel::from_parts(
      cfg, std::move(stats), std::move(typing), std::move(matrix));

  std::stringstream ss;
  ASSERT_TRUE(write_model(ss, original));
  EXPECT_NE(ss.str().find("trained_end_s 172800"), std::string::npos);
  const ModelReadResult r = read_model(ss);
  ASSERT_TRUE(r.model.has_value()) << r.error;
  EXPECT_EQ(r.model->config().trained_end_s, 2 * 86400);
}

TEST(ModelIo, OmitsUnknownTrainingHorizonForBackCompat) {
  // sample_model() leaves trained_end_s at its default (-1): the line
  // must be absent so pre-existing golden files stay byte-identical,
  // and reading such a file must preserve the "unknown" sentinel.
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  ASSERT_TRUE(write_model(ss, original));
  EXPECT_EQ(ss.str().find("trained_end_s"), std::string::npos);
  const ModelReadResult r = read_model(ss);
  ASSERT_TRUE(r.model.has_value()) << r.error;
  EXPECT_EQ(r.model->config().trained_end_s, -1);
}

TEST(ModelIo, RejectsNegativeTrainedEnd) {
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  write_model(ss, original);
  std::string text = ss.str();
  const std::size_t pos = text.find("users ");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos, "trained_end_s -7\n");
  std::stringstream bad(text);
  const ModelReadResult r = read_model(bad);
  EXPECT_FALSE(r.model.has_value());
  EXPECT_NE(r.error.find("trained_end_s"), std::string::npos);
}

TEST(ModelIo, RejectsGarbage) {
  std::stringstream ss("not a model\n");
  const ModelReadResult r = read_model(ss);
  EXPECT_FALSE(r.model.has_value());
  EXPECT_NE(r.error.find("magic"), std::string::npos);
}

TEST(ModelIo, RejectsTruncatedPairList) {
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  write_model(ss, original);
  std::string text = ss.str();
  text.erase(text.rfind('\n', text.size() - 2));  // drop last pair row
  std::stringstream cut(text);
  const ModelReadResult r = read_model(cut);
  EXPECT_FALSE(r.model.has_value());
}

TEST(ModelIo, RejectsInconsistentCounts) {
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  write_model(ss, original);
  std::string text = ss.str();
  // Corrupt a pair row: co_leaves > encounters.
  const std::size_t pos = text.find("5 3 2");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 5, "2 9 0");
  std::stringstream bad(text);
  const ModelReadResult r = read_model(bad);
  EXPECT_FALSE(r.model.has_value());
  EXPECT_NE(r.error.find("exceed"), std::string::npos);
}

TEST(ModelIo, RejectsUserIdOutOfRange) {
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  write_model(ss, original);
  std::string text = ss.str();
  const std::size_t pos = text.find("2 4 2 2 0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "2 9 2 2 0");  // user 9 > num_users
  std::stringstream bad(text);
  const ModelReadResult r = read_model(bad);
  EXPECT_FALSE(r.model.has_value());
}

TEST(ModelIo, ParseModelFormatVocabulary) {
  EXPECT_EQ(parse_model_format("text"), ModelFormat::kTextV1);
  EXPECT_EQ(parse_model_format("binary"), ModelFormat::kBinaryV1);
  EXPECT_EQ(parse_model_format("auto"), ModelFormat::kAuto);
  EXPECT_FALSE(parse_model_format("csv").has_value());
  EXPECT_FALSE(parse_model_format("").has_value());
}

TEST(ModelIo, BinaryRoundTripPreservesEverything) {
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  ASSERT_TRUE(write_model_binary(ss, original));
  const ModelReadResult r = read_model_binary(ss);
  ASSERT_TRUE(r.model.has_value()) << r.error;
  const SocialIndexModel& back = *r.model;
  EXPECT_DOUBLE_EQ(back.alpha(), original.alpha());
  EXPECT_EQ(back.num_users(), original.num_users());
  EXPECT_EQ(back.typing().type_of_user, original.typing().type_of_user);
  EXPECT_EQ(back.typing().centroids, original.typing().centroids);
  EXPECT_EQ(back.pair_stats().size(), original.pair_stats().size());
  for (UserId u = 0; u < 5; ++u) {
    for (UserId v = u + 1; v < 5; ++v) {
      // Binary stores the doubles verbatim: exact equality.
      EXPECT_EQ(back.theta(u, v), original.theta(u, v));
    }
  }
}

TEST(ModelIo, BinaryRejectsTruncation) {
  const SocialIndexModel original = sample_model();
  std::stringstream ss;
  ASSERT_TRUE(write_model_binary(ss, original));
  const std::string full = ss.str();
  for (const std::size_t cut : {std::size_t{4}, full.size() / 2,
                                full.size() - 3}) {
    std::stringstream trunc(full.substr(0, cut));
    EXPECT_FALSE(read_model_binary(trunc).model.has_value()) << cut;
  }
}

/// Overwrites the little-endian u64 at `offset` of a binary model.
void patch_u64(std::string& bytes, std::size_t offset, std::uint64_t v) {
  std::memcpy(bytes.data() + offset, &v, sizeof v);
}

/// Reads `bytes` with both readers' contract for hostile input: an
/// error result, never an exception or a crash.
template <typename Reader>
void expect_rejected(const std::string& bytes, Reader read) {
  std::stringstream in(bytes);
  ModelReadResult r;
  EXPECT_NO_THROW(r = read(in));
  EXPECT_FALSE(r.model.has_value());
  EXPECT_FALSE(r.error.empty());
}

// Binary layout of sample_model(): 40 bytes of magic and config, then
// num_users (offset 40) and num_types (48), 5 type ids, 12 centroids,
// a 2x2 matrix, and the pair count at offset 204.
constexpr std::size_t kUsersOffset = 40;
constexpr std::size_t kTypesOffset = 48;
constexpr std::size_t kPairCountOffset = 204;

TEST(ModelIo, BinaryRejectsOverflowingTypeCount) {
  std::stringstream ss;
  ASSERT_TRUE(write_model_binary(ss, sample_model()));
  // 72 bytes: header with one user and 2^63 types (num_types * 6 and
  // num_types^2 both wrap to 0), one type id, a zero pair count.
  std::string bytes = ss.str().substr(0, 56);
  patch_u64(bytes, kUsersOffset, 1);
  patch_u64(bytes, kTypesOffset, std::uint64_t{1} << 63);
  bytes.append(16, '\0');
  ASSERT_EQ(bytes.size(), 72u);
  expect_rejected(bytes, read_model_binary);
}

TEST(ModelIo, BinaryRejectsUserCountBeyondUserIdRange) {
  std::stringstream ss;
  ASSERT_TRUE(write_model_binary(ss, sample_model()));
  std::string bytes = ss.str();
  patch_u64(bytes, kUsersOffset, std::uint64_t{1} << 40);
  expect_rejected(bytes, read_model_binary);
}

TEST(ModelIo, BinaryRejectsPairCountBeyondStream) {
  std::stringstream ss;
  ASSERT_TRUE(write_model_binary(ss, sample_model()));
  std::string bytes = ss.str();
  ASSERT_GT(bytes.size(), kPairCountOffset + 8);
  patch_u64(bytes, kPairCountOffset, std::uint64_t{1} << 60);
  expect_rejected(bytes, read_model_binary);
}

TEST(ModelIo, TextRejectsUserCountBeyondUserIdRange) {
  std::stringstream ss;
  ASSERT_TRUE(write_model(ss, sample_model()));
  std::string text = ss.str();
  const std::size_t at = text.find("\nusers 5\n");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 9, "\nusers 1000000000000000\n");
  expect_rejected(text, static_cast<ModelReadResult (*)(std::istream&)>(
                            read_model));
}

TEST(ModelIo, TextAcceptsLastPairRowWithoutNewline) {
  // The pair-count check against the bytes left must not reject a
  // hand-edited file whose last row has no newline.
  std::stringstream ss;
  ASSERT_TRUE(write_model(ss, sample_model()));
  std::string text = ss.str();
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  std::stringstream in(text);
  const ModelReadResult r = read_model(in);
  ASSERT_TRUE(r.model.has_value()) << r.error;
  EXPECT_EQ(r.model->pair_stats().size(), 2u);
}

TEST(ModelIo, SaveLoadDispatchAndAutoSniff) {
  const SocialIndexModel original = sample_model();
  const std::string text_path = ::testing::TempDir() + "/s3lb_fmt.txt";
  const std::string bin_path = ::testing::TempDir() + "/s3lb_fmt.bin";
  ASSERT_TRUE(save_model(text_path, original, ModelFormat::kTextV1));
  ASSERT_TRUE(save_model(bin_path, original, ModelFormat::kBinaryV1));

  // kAuto sniffs either encoding from the leading bytes.
  for (const std::string& path : {text_path, bin_path}) {
    const ModelReadResult r = load_model(path);
    ASSERT_TRUE(r.model.has_value()) << path << ": " << r.error;
    EXPECT_DOUBLE_EQ(r.model->theta(0, 1), original.theta(0, 1)) << path;
  }
  // Concrete formats reject files of the other encoding.
  EXPECT_FALSE(load_model(text_path, ModelFormat::kBinaryV1).model);
  EXPECT_FALSE(load_model(bin_path, ModelFormat::kTextV1).model);
  EXPECT_TRUE(load_model(text_path, ModelFormat::kTextV1).model.has_value());
  EXPECT_TRUE(load_model(bin_path, ModelFormat::kBinaryV1).model.has_value());
  // Saving needs a concrete format.
  EXPECT_THROW(save_model(text_path, original, ModelFormat::kAuto),
               std::invalid_argument);
}

TEST(ModelIo, SerializationIsIdenticalAcrossStorageBackends) {
  // The same logical model over two differently-built PairStores — one
  // filled in ascending pair order at the default capacity, one in the
  // opposite order after churn that grew its table — must serialize to
  // identical bytes in both formats: written models depend only on
  // contents, never on table capacity or insertion order.
  const SocialIndexModel in_order = sample_model();

  PairStore store;
  store.assign(UserPair(2, 4), {2, 2, 0});
  for (UserId v = 1; v < 40; ++v) store.upsert(UserPair(50 + v, 200 + v));
  for (UserId v = 1; v < 40; ++v) store.erase(UserPair(50 + v, 200 + v));
  store.assign(UserPair(0, 1), {5, 3, 2});
  ASSERT_NE(store.capacity(), in_order.pair_stats().capacity());
  const SocialIndexModel churned = SocialIndexModel::from_parts(
      in_order.config(), std::move(store), in_order.typing(),
      in_order.type_matrix());

  std::stringstream text_a, text_b, bin_a, bin_b;
  ASSERT_TRUE(write_model(text_a, in_order));
  ASSERT_TRUE(write_model(text_b, churned));
  EXPECT_EQ(text_a.str(), text_b.str());
  ASSERT_TRUE(write_model_binary(bin_a, in_order));
  ASSERT_TRUE(write_model_binary(bin_b, churned));
  EXPECT_EQ(bin_a.str(), bin_b.str());
}

TEST(ModelIo, BinaryRoundTripTrainedModelAcrossFormats) {
  trace::GeneratorConfig cfg;
  cfg.seed = 13;
  cfg.num_users = 120;
  cfg.num_days = 5;
  cfg.layout.num_buildings = 1;
  cfg.layout.aps_per_building = 5;
  const trace::GeneratedTrace g = trace::generate_campus_trace(cfg);
  std::vector<ApId> aps;
  wlan::RadioModel radio;
  for (const trace::SessionRecord& s : g.workload.sessions()) {
    aps.push_back(wlan::strongest_ap(g.network, radio, s.building, s.pos));
  }
  const SocialIndexModel trained =
      SocialIndexModel::train(g.workload.with_assignments(aps), {});

  // text -> model -> binary -> model: every theta must survive both
  // hops exactly (text rounds through max_digits10, binary verbatim).
  std::stringstream text;
  ASSERT_TRUE(write_model(text, trained));
  const ModelReadResult via_text = read_model(text);
  ASSERT_TRUE(via_text.model.has_value()) << via_text.error;
  std::stringstream bin;
  ASSERT_TRUE(write_model_binary(bin, *via_text.model));
  const ModelReadResult via_bin = read_model_binary(bin);
  ASSERT_TRUE(via_bin.model.has_value()) << via_bin.error;
  EXPECT_EQ(via_bin.model->pair_stats().size(), trained.pair_stats().size());
  for (UserId u = 0; u < 120; u += 7) {
    for (UserId v = u + 1; v < 120; v += 11) {
      EXPECT_EQ(via_bin.model->theta(u, v), via_text.model->theta(u, v));
    }
  }
}

TEST(ModelIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/s3lb_model.txt";
  const SocialIndexModel original = sample_model();
  ASSERT_TRUE(write_model_file(path, original));
  const ModelReadResult r = read_model_file(path);
  ASSERT_TRUE(r.model.has_value()) << r.error;
  EXPECT_DOUBLE_EQ(r.model->theta(0, 1), original.theta(0, 1));
  EXPECT_FALSE(read_model_file("/nonexistent/model.txt").model.has_value());
}

}  // namespace
}  // namespace s3::social
