#include "s3/social/model_io.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "s3/util/stream.h"

namespace s3::social {

namespace {

constexpr std::string_view kMagic = "# s3lb social model v1";
// 8 bytes, deliberately not valid UTF-8 text past the version byte so a
// text parser bails on byte one.
constexpr char kBinaryMagic[8] = {'s', '3', 'l', 'b', 'm', 'd', 'l', '\x01'};

static_assert(std::endian::native == std::endian::little,
              "binary model format assumes a little-endian host");

template <typename T>
void put(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool get(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  return static_cast<bool>(is);
}

template <typename T>
void put_vec(std::ostream& os, const std::vector<T>& v) {
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

/// How many more `size`-byte records a seekable stream holds; nullopt
/// when it cannot seek. Counts are checked against this by division, so
/// no count's byte size can overflow on the way.
std::optional<std::uint64_t> records_left(std::istream& is,
                                          std::uint64_t size) {
  const std::optional<std::uint64_t> bytes = util::remaining_bytes(is);
  if (!bytes) return std::nullopt;
  return *bytes / size;
}

/// a * b, or nullopt when the product overflows.
std::optional<std::uint64_t> product(std::uint64_t a, std::uint64_t b) {
  std::uint64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) return std::nullopt;
  return out;
}

/// Reads `n` elements. Fails early when a seekable stream holds fewer;
/// otherwise the vector grows chunk by chunk, so a count the stream
/// cannot back never allocates far past the bytes present.
template <typename T>
bool get_vec(std::istream& is, std::vector<T>& v, std::uint64_t n) {
  if (const auto left = records_left(is, sizeof(T)); left && n > *left) {
    return false;
  }
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  v.clear();
  while (v.size() < n) {
    const std::size_t at = v.size();
    const auto take = static_cast<std::size_t>(std::min(n - at, kChunk));
    v.resize(at + take);
    is.read(reinterpret_cast<char*>(v.data() + at),
            static_cast<std::streamsize>(take * sizeof(T)));
    if (!is) return false;
  }
  return true;
}

/// Shortest text pair row, "a b e c k" (the last row may lack its
/// newline, so n rows take at least 10n - 1 >= 9n bytes).
constexpr std::uint64_t kMinPairRowBytes = 9;
/// Packed binary pair record: two user ids and three counters.
constexpr std::uint64_t kPairRecordBytes =
    2 * sizeof(UserId) + sizeof(PairStore::Stats::encounters) +
    sizeof(PairStore::Stats::co_leaves) + sizeof(PairStore::Stats::co_comings);

/// User ids are UserId values below the declared count.
constexpr std::uint64_t kMaxUsers = std::numeric_limits<UserId>::max();

}  // namespace

bool write_model(std::ostream& os, const SocialIndexModel& model) {
  os.precision(17);
  const UserTyping& typing = model.typing();
  os << kMagic << '\n';
  os << "alpha " << model.alpha() << '\n';
  os << "co_leave_window_s "
     << model.config().events.co_leave_window.seconds() << '\n';
  os << "min_encounter_overlap_s "
     << model.config().events.min_encounter_overlap.seconds() << '\n';
  // Optional: omitted entirely for models that never recorded their
  // training horizon, so byte-for-byte golden files stay valid.
  if (model.config().trained_end_s >= 0) {
    os << "trained_end_s " << model.config().trained_end_s << '\n';
  }
  os << "users " << typing.type_of_user.size() << '\n';
  os << "types " << typing.num_types << '\n';

  os << "type_of_user";
  for (std::size_t t : typing.type_of_user) os << ' ' << t;
  os << '\n';

  os << "centroids";
  for (double v : typing.centroids) os << ' ' << v;
  os << '\n';

  os << "matrix";
  const TypeCoLeaveMatrix& m = model.type_matrix();
  for (std::size_t i = 0; i < m.num_types(); ++i) {
    for (std::size_t j = 0; j < m.num_types(); ++j) os << ' ' << m.at(i, j);
  }
  os << '\n';

  os << "pairs " << model.pair_stats().size() << '\n';
  // Canonical (a, b) order: file bytes depend only on model contents,
  // never on hash capacity or insertion history.
  for (const PairStore::Entry& e : model.pair_stats().sorted_entries()) {
    os << e.pair.a << ' ' << e.pair.b << ' ' << e.stats.encounters << ' '
       << e.stats.co_leaves << ' ' << e.stats.co_comings << '\n';
  }
  return static_cast<bool>(os);
}

bool write_model_file(const std::string& path, const SocialIndexModel& model) {
  std::ofstream os(path);
  return os && write_model(os, model);
}

ModelReadResult read_model(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kMagic) {
    return {std::nullopt, "missing model magic line"};
  }

  SocialModelConfig config;
  std::size_t num_users = 0, num_types = 0, num_pairs = 0;
  UserTyping typing;
  std::vector<double> matrix_values;

  auto fail = [](const std::string& why) {
    return ModelReadResult{std::nullopt, why};
  };

  // alpha
  std::string key;
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key >> config.alpha) || key != "alpha") {
      return fail("bad alpha line");
    }
    if (config.alpha < 0.0) return fail("negative alpha");
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    std::int64_t v = 0;
    if (!(ls >> key >> v) || key != "co_leave_window_s" || v <= 0) {
      return fail("bad co_leave_window_s line");
    }
    config.events.co_leave_window = util::SimTime(v);
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    std::int64_t v = 0;
    if (!(ls >> key >> v) || key != "min_encounter_overlap_s" || v <= 0) {
      return fail("bad min_encounter_overlap_s line");
    }
    config.events.min_encounter_overlap = util::SimTime(v);
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key)) return fail("bad users line");
    // Optional training-horizon line (absent in models written before
    // the field existed — config.trained_end_s stays -1 for those).
    if (key == "trained_end_s") {
      std::int64_t v = 0;
      if (!(ls >> v) || v < 0) return fail("bad trained_end_s line");
      config.trained_end_s = v;
      std::getline(is, line);
      ls = std::istringstream(line);
      if (!(ls >> key)) return fail("bad users line");
    }
    if (!(ls >> num_users) || key != "users" || num_users == 0 ||
        num_users > kMaxUsers) {
      return fail("bad users line");
    }
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key >> num_types) || key != "types" || num_types == 0 ||
        !product(num_types, num_types)) {
      return fail("bad types line");
    }
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key) || key != "type_of_user") {
      return fail("bad type_of_user line");
    }
    std::size_t t;
    while (ls >> t) {
      if (t >= num_types) return fail("type id out of range");
      typing.type_of_user.push_back(t);
    }
    if (typing.type_of_user.size() != num_users) {
      return fail("type_of_user arity mismatch");
    }
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key) || key != "centroids") return fail("bad centroids line");
    double v;
    while (ls >> v) typing.centroids.push_back(v);
    if (typing.centroids.size() != num_types * apps::kNumCategories) {
      return fail("centroids arity mismatch");
    }
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key) || key != "matrix") return fail("bad matrix line");
    double v;
    while (ls >> v) matrix_values.push_back(v);
    if (matrix_values.size() != num_types * num_types) {
      return fail("matrix arity mismatch");
    }
  }
  {
    std::getline(is, line);
    std::istringstream ls(line);
    if (!(ls >> key >> num_pairs) || key != "pairs") {
      return fail("bad pairs line");
    }
  }
  const std::optional<std::uint64_t> rows_left =
      records_left(is, kMinPairRowBytes);
  if (rows_left && num_pairs > *rows_left) return fail("truncated pair list");

  typing.num_types = num_types;
  TypeCoLeaveMatrix matrix(num_types);
  for (std::size_t i = 0; i < num_types; ++i) {
    for (std::size_t j = i; j < num_types; ++j) {
      const double a = matrix_values[i * num_types + j];
      const double b = matrix_values[j * num_types + i];
      if (a != b) return fail("matrix not symmetric");
      matrix.set(i, j, a);
    }
  }

  PairStore stats(rows_left ? num_pairs : 0);
  for (std::size_t p = 0; p < num_pairs; ++p) {
    if (!std::getline(is, line)) return fail("truncated pair list");
    std::istringstream ls(line);
    UserId a, b;
    PairStore::Stats ps;
    if (!(ls >> a >> b >> ps.encounters >> ps.co_leaves >> ps.co_comings)) {
      return fail("bad pair row " + std::to_string(p));
    }
    if (a >= num_users || b >= num_users || a == b) {
      return fail("pair row " + std::to_string(p) + ": bad user ids");
    }
    if (ps.co_leaves > ps.encounters) {
      return fail("pair row " + std::to_string(p) +
                  ": co_leaves exceed encounters");
    }
    stats.assign(UserPair(a, b), ps);
  }

  return {SocialIndexModel::from_parts(config, std::move(stats),
                                       std::move(typing), std::move(matrix)),
          ""};
}

ModelReadResult read_model_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) return {std::nullopt, "cannot open " + path};
  return read_model(is);
}

bool write_model_binary(std::ostream& os, const SocialIndexModel& model) {
  os.write(kBinaryMagic, sizeof kBinaryMagic);
  const UserTyping& typing = model.typing();
  put(os, model.alpha());
  put(os, model.config().events.co_leave_window.seconds());
  put(os, model.config().events.min_encounter_overlap.seconds());
  put(os, model.config().trained_end_s);
  put(os, static_cast<std::uint64_t>(typing.type_of_user.size()));
  put(os, static_cast<std::uint64_t>(typing.num_types));

  std::vector<std::uint32_t> types(typing.type_of_user.begin(),
                                   typing.type_of_user.end());
  put_vec(os, types);
  put_vec(os, typing.centroids);

  const TypeCoLeaveMatrix& m = model.type_matrix();
  for (std::size_t i = 0; i < m.num_types(); ++i) {
    for (std::size_t j = 0; j < m.num_types(); ++j) put(os, m.at(i, j));
  }

  put(os, static_cast<std::uint64_t>(model.pair_stats().size()));
  for (const PairStore::Entry& e : model.pair_stats().sorted_entries()) {
    put(os, e.pair.a);
    put(os, e.pair.b);
    put(os, e.stats.encounters);
    put(os, e.stats.co_leaves);
    put(os, e.stats.co_comings);
  }
  return static_cast<bool>(os);
}

ModelReadResult read_model_binary(std::istream& is) {
  auto fail = [](const std::string& why) {
    return ModelReadResult{std::nullopt, "binary model: " + why};
  };

  char magic[sizeof kBinaryMagic] = {};
  is.read(magic, sizeof magic);
  if (!is || std::memcmp(magic, kBinaryMagic, sizeof magic) != 0) {
    return fail("missing magic");
  }

  SocialModelConfig config;
  std::int64_t window_s = 0, overlap_s = 0;
  std::uint64_t num_users = 0, num_types = 0;
  if (!get(is, config.alpha) || !get(is, window_s) || !get(is, overlap_s) ||
      !get(is, config.trained_end_s) || !get(is, num_users) ||
      !get(is, num_types)) {
    return fail("truncated header");
  }
  if (config.alpha < 0.0) return fail("negative alpha");
  if (window_s <= 0 || overlap_s <= 0) return fail("bad event windows");
  const std::optional<std::uint64_t> num_centroids =
      product(num_types, apps::kNumCategories);
  const std::optional<std::uint64_t> num_cells = product(num_types, num_types);
  if (num_users == 0 || num_users > kMaxUsers || num_types == 0 ||
      !num_centroids || !num_cells) {
    return fail("bad counts");
  }
  if (config.trained_end_s < -1) return fail("bad trained_end_s");
  config.events.co_leave_window = util::SimTime(window_s);
  config.events.min_encounter_overlap = util::SimTime(overlap_s);

  UserTyping typing;
  typing.num_types = num_types;
  std::vector<std::uint32_t> types;
  if (!get_vec(is, types, num_users)) return fail("truncated typing");
  typing.type_of_user.reserve(types.size());
  for (std::uint32_t t : types) {
    if (t >= num_types) return fail("type id out of range");
    typing.type_of_user.push_back(t);
  }
  if (!get_vec(is, typing.centroids, *num_centroids)) {
    return fail("truncated centroids");
  }

  std::vector<double> matrix_values;
  if (!get_vec(is, matrix_values, *num_cells)) {
    return fail("truncated matrix");
  }
  TypeCoLeaveMatrix matrix(num_types);
  for (std::size_t i = 0; i < num_types; ++i) {
    for (std::size_t j = i; j < num_types; ++j) {
      const double a = matrix_values[i * num_types + j];
      const double b = matrix_values[j * num_types + i];
      if (a != b) return fail("matrix not symmetric");
      matrix.set(i, j, a);
    }
  }

  std::uint64_t num_pairs = 0;
  if (!get(is, num_pairs)) return fail("truncated pair count");
  const std::optional<std::uint64_t> pairs_left =
      records_left(is, kPairRecordBytes);
  if (pairs_left && num_pairs > *pairs_left) {
    return fail("truncated pair list");
  }
  PairStore stats(pairs_left ? num_pairs : 0);
  for (std::uint64_t p = 0; p < num_pairs; ++p) {
    UserId a = 0, b = 0;
    PairStore::Stats ps;
    if (!get(is, a) || !get(is, b) || !get(is, ps.encounters) ||
        !get(is, ps.co_leaves) || !get(is, ps.co_comings)) {
      return fail("truncated pair list");
    }
    if (a >= num_users || b >= num_users || a == b) {
      return fail("pair row " + std::to_string(p) + ": bad user ids");
    }
    if (ps.co_leaves > ps.encounters) {
      return fail("pair row " + std::to_string(p) +
                  ": co_leaves exceed encounters");
    }
    stats.assign(UserPair(a, b), ps);
  }

  return {SocialIndexModel::from_parts(config, std::move(stats),
                                       std::move(typing), std::move(matrix)),
          ""};
}

std::optional<ModelFormat> parse_model_format(const std::string& name) {
  if (name == "text") return ModelFormat::kTextV1;
  if (name == "binary") return ModelFormat::kBinaryV1;
  if (name == "auto") return ModelFormat::kAuto;
  return std::nullopt;
}

bool save_model(const std::string& path, const SocialIndexModel& model,
                ModelFormat format) {
  S3_REQUIRE(format != ModelFormat::kAuto,
             "save_model: kAuto is a load-only format");
  if (format == ModelFormat::kBinaryV1) {
    std::ofstream os(path, std::ios::binary);
    return os && write_model_binary(os, model);
  }
  return write_model_file(path, model);
}

ModelReadResult load_model(const std::string& path, ModelFormat format) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return {std::nullopt, "cannot open " + path};
  if (format == ModelFormat::kAuto) {
    char first = 0;
    format = ModelFormat::kTextV1;
    if (is.get(first)) {
      if (first == kBinaryMagic[0]) {
        // Could still be text that happens to start with 's'; check the
        // full magic before committing.
        char rest[sizeof kBinaryMagic - 1] = {};
        is.read(rest, sizeof rest);
        if (is &&
            std::memcmp(rest, kBinaryMagic + 1, sizeof rest) == 0) {
          format = ModelFormat::kBinaryV1;
        }
      }
    }
    is.clear();
    is.seekg(0);
  }
  return format == ModelFormat::kBinaryV1 ? read_model_binary(is)
                                          : read_model(is);
}

}  // namespace s3::social
