// Stream helpers shared by the binary readers.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>

namespace s3::util {

/// Bytes left between the current position and the end of a seekable
/// stream; nullopt when the stream cannot be positioned (pipes).
inline std::optional<std::uint64_t> remaining_bytes(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here == std::istream::pos_type(-1)) return std::nullopt;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  if (end == std::istream::pos_type(-1) || !is) {
    is.clear();
    is.seekg(here);
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(end - here);
}

}  // namespace s3::util
