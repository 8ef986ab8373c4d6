#include "s3/trace/binary_io.h"

#include <cstring>
#include <fstream>

#include "s3/util/stream.h"

namespace s3::trace {

namespace {

constexpr char kMagic[8] = {'S', '3', 'L', 'B', 'T', 'R', 'C', '1'};

// Packed on-disk record. Fixed layout, little-endian doubles/ints as
// the host writes them (the library targets one architecture family;
// a portable exporter would use the CSV format).
struct DiskRecord {
  std::uint32_t user;
  std::uint32_t ap;
  std::uint32_t building;
  std::uint32_t group;
  double pos_x;
  double pos_y;
  std::int64_t connect_s;
  std::int64_t disconnect_s;
  double traffic[apps::kNumCategories];
  double demand_mbps;
  std::uint64_t rate_seed;
};
static_assert(sizeof(DiskRecord) == 4 * 4 + 2 * 8 + 2 * 8 + 6 * 8 + 8 + 8,
              "DiskRecord must be packed without padding");

struct Header {
  char magic[8];
  std::uint64_t num_users;
  std::uint64_t num_days;
  std::uint64_t num_sessions;
};

}  // namespace

bool write_binary(std::ostream& os, const Trace& trace) {
  Header h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.num_users = trace.num_users();
  h.num_days = trace.num_days();
  h.num_sessions = trace.size();
  os.write(reinterpret_cast<const char*>(&h), sizeof(h));

  for (const SessionRecord& s : trace.sessions()) {
    DiskRecord r{};
    r.user = s.user;
    r.ap = s.ap;
    r.building = s.building;
    r.group = s.group;
    r.pos_x = s.pos.x;
    r.pos_y = s.pos.y;
    r.connect_s = s.connect.seconds();
    r.disconnect_s = s.disconnect.seconds();
    for (std::size_t c = 0; c < apps::kNumCategories; ++c) {
      r.traffic[c] = s.traffic[c];
    }
    r.demand_mbps = s.demand_mbps;
    r.rate_seed = s.rate_seed;
    os.write(reinterpret_cast<const char*>(&r), sizeof(r));
  }
  return static_cast<bool>(os);
}

bool write_binary_file(const std::string& path, const Trace& trace) {
  std::ofstream os(path, std::ios::binary);
  return os && write_binary(os, trace);
}

bool sniff_binary(std::istream& is) {
  char buf[8] = {};
  const auto pos = is.tellg();
  is.read(buf, sizeof(buf));
  const bool ok =
      is.gcount() == sizeof(buf) && std::memcmp(buf, kMagic, 8) == 0;
  is.clear();
  is.seekg(pos);
  return ok;
}

std::string_view to_string(BinaryReadError error) noexcept {
  switch (error) {
    case BinaryReadError::kNone:
      return "none";
    case BinaryReadError::kOpenFailed:
      return "open-failed";
    case BinaryReadError::kBadMagic:
      return "bad-magic";
    case BinaryReadError::kBadHeader:
      return "bad-header";
    case BinaryReadError::kSizeMismatch:
      return "size-mismatch";
    case BinaryReadError::kTruncatedRecord:
      return "truncated-record";
    case BinaryReadError::kBadRecord:
      return "bad-record";
  }
  return "?";
}

namespace {

BinaryReadResult fail(BinaryReadError code, std::string msg) {
  return {std::nullopt, std::move(msg), code};
}

}  // namespace

BinaryReadResult read_binary(std::istream& is) {
  Header h{};
  is.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (is.gcount() != sizeof(h) ||
      std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return fail(BinaryReadError::kBadMagic, "missing binary trace magic");
  }
  if (h.num_users == 0) {
    return fail(BinaryReadError::kBadHeader, "header: zero users");
  }
  // Guard against absurd session counts before reserving memory.
  if (h.num_sessions > (1ULL << 32)) {
    return fail(BinaryReadError::kBadHeader,
                "header: implausible session count");
  }
  // On a seekable stream, reject a header whose session count does not
  // fit the bytes actually present *before* reading records — a
  // corrupt count surfaces as one clear error instead of 96 bytes of
  // adjacent garbage parsed as a record.
  if (const std::optional<std::uint64_t> avail = util::remaining_bytes(is)) {
    const std::uint64_t need = h.num_sessions * sizeof(DiskRecord);
    if (*avail < need) {
      return fail(BinaryReadError::kSizeMismatch,
                  "truncated stream: header declares " +
                      std::to_string(h.num_sessions) + " sessions (" +
                      std::to_string(need) + " bytes) but only " +
                      std::to_string(*avail) + " bytes remain");
    }
  }

  std::vector<SessionRecord> sessions;
  sessions.reserve(static_cast<std::size_t>(h.num_sessions));
  for (std::uint64_t i = 0; i < h.num_sessions; ++i) {
    DiskRecord r{};
    is.read(reinterpret_cast<char*>(&r), sizeof(r));
    if (is.gcount() != sizeof(r)) {
      return fail(BinaryReadError::kTruncatedRecord,
                  "truncated at record " + std::to_string(i) + " of " +
                      std::to_string(h.num_sessions));
    }
    SessionRecord s;
    s.user = r.user;
    s.ap = r.ap;
    s.building = r.building;
    s.group = r.group;
    s.pos = {r.pos_x, r.pos_y};
    s.connect = util::SimTime(r.connect_s);
    s.disconnect = util::SimTime(r.disconnect_s);
    for (std::size_t c = 0; c < apps::kNumCategories; ++c) {
      s.traffic[c] = r.traffic[c];
    }
    s.demand_mbps = r.demand_mbps;
    s.rate_seed = r.rate_seed;
    if (s.user >= h.num_users) {
      return fail(BinaryReadError::kBadRecord,
                  "record " + std::to_string(i) + ": user id out of range");
    }
    if (s.connect >= s.disconnect) {
      return fail(BinaryReadError::kBadRecord,
                  "record " + std::to_string(i) + ": non-positive duration");
    }
    sessions.push_back(s);
  }
  return {Trace(static_cast<std::size_t>(h.num_users),
                static_cast<std::size_t>(h.num_days), std::move(sessions)),
          "", BinaryReadError::kNone};
}

BinaryReadResult read_binary_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return fail(BinaryReadError::kOpenFailed, "cannot open " + path);
  }
  return read_binary(is);
}

}  // namespace s3::trace
