#include "csecg/coding/bitstream.hpp"

#include <stdexcept>

#include "csecg/coding/decode_error.hpp"
#include "csecg/common/check.hpp"

namespace csecg::coding {

void BitWriter::write(std::uint64_t bits, int count) {
  CSECG_CHECK(count >= 0 && count <= 64,
              "BitWriter::write: count out of range: " << count);
  CSECG_CHECK(!finished_, "BitWriter::write after finish()");
  for (int i = count - 1; i >= 0; --i) {
    write_bit((bits >> i) & 1u);
  }
}

void BitWriter::write_bit(bool bit) {
  CSECG_CHECK(!finished_, "BitWriter::write_bit after finish()");
  const std::size_t byte_index = bit_count_ / 8;
  if (byte_index == bytes_.size()) bytes_.push_back(0);
  if (bit) {
    bytes_[byte_index] |=
        static_cast<std::uint8_t>(0x80u >> (bit_count_ % 8));
  }
  ++bit_count_;
}

std::vector<std::uint8_t> BitWriter::finish() {
  finished_ = true;
  return bytes_;
}

BitReader::BitReader(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)) {}

std::uint64_t BitReader::read(int count) {
  CSECG_CHECK(count >= 0 && count <= 64,
              "BitReader::read: count out of range: " << count);
  std::uint64_t out = 0;
  for (int i = 0; i < count; ++i) {
    out = (out << 1) | static_cast<std::uint64_t>(read_bit());
  }
  return out;
}

bool BitReader::read_bit() {
  if (position_ >= bytes_.size() * 8) {
    throw DecodeError("BitReader: read past end of stream");
  }
  const bool bit =
      (bytes_[position_ / 8] >> (7 - position_ % 8)) & 1u;
  ++position_;
  return bit;
}

}  // namespace csecg::coding
