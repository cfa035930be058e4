#include "util/serde.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace gdelay::util {

namespace {

static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "serde: mixed-endian hosts are not supported");

// Converts between host order and the little-endian wire order (the
// conversion is its own inverse): the identity on little-endian hosts, so
// the element loops below compile to plain block copies, and a byte
// reversal on big-endian ones.
template <class T>
T le(T v) {
  if constexpr (std::endian::native == std::endian::big) {
    T r = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i, v >>= 8)
      r = static_cast<T>((r << 8) | (v & 0xffu));
    return r;
  } else {
    return v;
  }
}

template <class T>
void store_le(unsigned char* p, T v) {
  v = le(v);
  std::memcpy(p, &v, sizeof v);
}

template <class T>
T load_le(const unsigned char* p) {
  T v = 0;
  std::memcpy(&v, p, sizeof v);
  return le(v);
}

// Appends n bytes to `buf` and returns where they start.
unsigned char* grow(std::string& buf, std::size_t n) {
  const std::size_t at = buf.size();
  buf.resize(at + n);
  return reinterpret_cast<unsigned char*>(buf.data()) + at;
}

}  // namespace

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

void ByteWriter::u32(std::uint32_t v) { store_le(grow(buf_, 4), v); }

void ByteWriter::u64(std::uint64_t v) { store_le(grow(buf_, 8), v); }

void ByteWriter::i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void ByteWriter::raw(const void* data, std::size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

void ByteWriter::vec_f64(const std::vector<double>& v) {
  const std::size_t n = v.size();
  const double* src = v.data();
  u64(n);
  unsigned char* p = grow(buf_, 8 * n);
  for (std::size_t i = 0; i < n; ++i)
    store_le(p + 8 * i, std::bit_cast<std::uint64_t>(src[i]));
}

void ByteWriter::vec_u64(const std::vector<std::uint64_t>& v) {
  const std::size_t n = v.size();
  const std::uint64_t* src = v.data();
  u64(n);
  unsigned char* p = grow(buf_, 8 * n);
  for (std::size_t i = 0; i < n; ++i) store_le(p + 8 * i, src[i]);
}

ByteReader::ByteReader(const void* data, std::size_t n)
    : p_(static_cast<const unsigned char*>(data)),
      end_(static_cast<const unsigned char*>(data) + n) {}

ByteReader::ByteReader(const std::string& bytes)
    : ByteReader(bytes.data(), bytes.size()) {}

namespace {
[[noreturn]] void truncated(const char* what) {
  throw std::runtime_error(std::string("serde: truncated read (") + what +
                           ")");
}
}  // namespace

std::uint8_t ByteReader::u8() {
  if (remaining() < 1) truncated("u8");
  return *p_++;
}

std::uint32_t ByteReader::u32() {
  if (remaining() < 4) truncated("u32");
  const auto v = load_le<std::uint32_t>(p_);
  p_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  if (remaining() < 8) truncated("u64");
  const auto v = load_le<std::uint64_t>(p_);
  p_ += 8;
  return v;
}

std::int32_t ByteReader::i32() { return static_cast<std::int32_t>(u32()); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

void ByteReader::raw(void* out, std::size_t n) {
  if (remaining() < n) truncated("raw");
  std::memcpy(out, p_, n);
  p_ += n;
}

std::vector<double> ByteReader::vec_f64() {
  const std::uint64_t n = u64();
  if (n > remaining() / 8) truncated("vec_f64");
  std::vector<double> v(static_cast<std::size_t>(n));
  double* dst = v.data();
  for (std::size_t i = 0; i < v.size(); ++i)
    dst[i] = std::bit_cast<double>(load_le<std::uint64_t>(p_ + 8 * i));
  p_ += 8 * v.size();
  return v;
}

std::vector<std::uint64_t> ByteReader::vec_u64() {
  const std::uint64_t n = u64();
  if (n > remaining() / 8) truncated("vec_u64");
  std::vector<std::uint64_t> v(static_cast<std::size_t>(n));
  std::uint64_t* dst = v.data();
  for (std::size_t i = 0; i < v.size(); ++i)
    dst[i] = load_le<std::uint64_t>(p_ + 8 * i);
  p_ += 8 * v.size();
  return v;
}

std::uint64_t fnv1a64(const void* data, std::size_t n, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t xxh64(const void* data, std::size_t n) {
  constexpr std::uint64_t P1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t P2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t P3 = 0x165667B19E3779F9ULL;
  constexpr std::uint64_t P4 = 0x85EBCA77C2B2AE63ULL;
  constexpr std::uint64_t P5 = 0x27D4EB2F165667C5ULL;
  const auto lane_round = [](std::uint64_t acc, std::uint64_t lane) {
    return std::rotl(acc + lane * P2, 31) * P1;
  };
  const auto merge_round = [&](std::uint64_t h, std::uint64_t acc) {
    return (h ^ lane_round(0, acc)) * P1 + P4;
  };
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + n;
  // Start states of the reference algorithm with its seed fixed at 0.
  std::uint64_t h = P5;
  if (n >= 32) {
    std::uint64_t v1 = P1 + P2, v2 = P2, v3 = 0, v4 = 0 - P1;
    for (; end - p >= 32; p += 32) {
      v1 = lane_round(v1, load_le<std::uint64_t>(p));
      v2 = lane_round(v2, load_le<std::uint64_t>(p + 8));
      v3 = lane_round(v3, load_le<std::uint64_t>(p + 16));
      v4 = lane_round(v4, load_le<std::uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge_round(merge_round(merge_round(merge_round(h, v1), v2), v3), v4);
  }
  h += n;
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ lane_round(0, load_le<std::uint64_t>(p)), 27) * P1 + P4;
  if (end - p >= 4) {
    h = std::rotl(h ^ (load_le<std::uint32_t>(p) * P1), 23) * P2 + P3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * P5), 11) * P1;
  h ^= h >> 33;
  h *= P2;
  h ^= h >> 29;
  h *= P3;
  h ^= h >> 32;
  return h;
}

}  // namespace gdelay::util
