#include "common/byte_io.hpp"

#include <fstream>

namespace hdc {

ByteReader open_envelope(std::span<const std::uint8_t> bytes, std::uint32_t magic,
                         std::uint32_t version, const std::string& what) {
  HDC_CHECK(bytes.size() > sizeof(std::uint32_t) * 3, what + " is too small to be valid");
  const std::size_t payload_size = bytes.size() - sizeof(std::uint32_t);
  std::uint32_t stored_checksum = 0;
  std::memcpy(&stored_checksum, bytes.data() + payload_size, sizeof(stored_checksum));
  HDC_CHECK(crc32(bytes.data(), payload_size) == stored_checksum,
            what + " failed its checksum (corrupted or truncated)");
  // The magic's four bytes spell the format's name ("HDCM").
  const std::string format(reinterpret_cast<const char*>(&magic), sizeof(magic));
  ByteReader reader(bytes.subspan(0, payload_size));
  HDC_CHECK(reader.read<std::uint32_t>() == magic, what + " is not an " + format + " buffer");
  HDC_CHECK(reader.read<std::uint32_t>() == version,
            "unsupported " + format + " version in " + what);
  return reader;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  HDC_CHECK(in.good(), "cannot open file for reading: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(bytes.data()), size);
  }
  HDC_CHECK(in.good(), "short read from file: " + path);
  return bytes;
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  HDC_CHECK(out.good(), "cannot open file for writing: " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  HDC_CHECK(out.good(), "short write to file: " + path);
}

}  // namespace hdc
