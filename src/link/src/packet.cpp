#include "csecg/link/packet.hpp"

#include "csecg/common/check.hpp"
#include "csecg/link/crc16.hpp"

namespace csecg::link {
namespace {

constexpr std::uint8_t kMagic = 0xA7;

void push_u16(std::vector<std::uint8_t>& out, std::uint16_t value) {
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value & 0xFF));
}

std::uint16_t peek_u16(const std::uint8_t* bytes) {
  return static_cast<std::uint16_t>((bytes[0] << 8) | bytes[1]);
}

}  // namespace

std::vector<std::uint8_t> serialize_packet(
    const PacketHeader& header, const std::vector<std::uint8_t>& payload) {
  CSECG_CHECK(payload.size() * 8 <= 0xFFFF,
              "serialize_packet: payload too large for the bit-count field");
  CSECG_CHECK((std::size_t{header.payload_bits} + 7) / 8 == payload.size(),
              "serialize_packet: payload_bits "
                  << header.payload_bits << " does not match "
                  << payload.size() << " payload bytes");

  std::vector<std::uint8_t> out;
  out.reserve(kPacketOverheadBytes + payload.size());
  out.push_back(kMagic);
  out.push_back(static_cast<std::uint8_t>(header.kind));
  push_u16(out, header.stream_id);
  push_u16(out, header.window_seq);
  out.push_back(header.packet_seq);
  out.push_back(header.packet_count);
  push_u16(out, header.first);
  push_u16(out, header.count);
  push_u16(out, header.payload_bits);
  out.insert(out.end(), payload.begin(), payload.end());
  push_u16(out, crc16_ccitt(out.data(), out.size()));
  return out;
}

std::optional<Packet> parse_packet(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kPacketOverheadBytes) return std::nullopt;
  if (bytes[0] != kMagic) return std::nullopt;
  const std::uint8_t kind = bytes[1];
  if (kind > static_cast<std::uint8_t>(PayloadKind::kCodebook)) {
    return std::nullopt;
  }

  Packet packet;
  packet.header.kind = static_cast<PayloadKind>(kind);
  packet.header.stream_id = peek_u16(bytes.data() + 2);
  packet.header.window_seq = peek_u16(bytes.data() + 4);
  packet.header.packet_seq = bytes[6];
  packet.header.packet_count = bytes[7];
  packet.header.first = peek_u16(bytes.data() + 8);
  packet.header.count = peek_u16(bytes.data() + 10);
  packet.header.payload_bits = peek_u16(bytes.data() + 12);

  const std::size_t payload_bytes =
      (static_cast<std::size_t>(packet.header.payload_bits) + 7) / 8;
  if (bytes.size() != kPacketOverheadBytes + payload_bytes) {
    return std::nullopt;
  }
  const std::uint16_t crc =
      crc16_ccitt(bytes.data(), kPacketHeaderBytes + payload_bytes);
  if (crc != peek_u16(bytes.data() + kPacketHeaderBytes + payload_bytes)) {
    return std::nullopt;
  }
  packet.payload.assign(
      bytes.begin() + static_cast<long>(kPacketHeaderBytes),
      bytes.begin() + static_cast<long>(kPacketHeaderBytes + payload_bytes));
  return packet;
}

}  // namespace csecg::link
