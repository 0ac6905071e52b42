#include "util/sha256.h"

#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define FB_SHA256_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace fb {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
inline uint32_t Ch(uint32_t x, uint32_t y, uint32_t z) {
  return (x & y) ^ (~x & z);
}
inline uint32_t Maj(uint32_t x, uint32_t y, uint32_t z) {
  return (x & y) ^ (x & z) ^ (y & z);
}
inline uint32_t BigSigma0(uint32_t x) {
  return Rotr(x, 2) ^ Rotr(x, 13) ^ Rotr(x, 22);
}
inline uint32_t BigSigma1(uint32_t x) {
  return Rotr(x, 6) ^ Rotr(x, 11) ^ Rotr(x, 25);
}
inline uint32_t SmallSigma0(uint32_t x) {
  return Rotr(x, 7) ^ Rotr(x, 18) ^ (x >> 3);
}
inline uint32_t SmallSigma1(uint32_t x) {
  return Rotr(x, 17) ^ Rotr(x, 19) ^ (x >> 10);
}

#ifdef FB_SHA256_X86_DISPATCH

// One compression step over `nblocks` 64-byte blocks using the SHA-NI
// instructions (Intel's canonical two-lane formulation: the state lives
// in two xmm registers as ABEF/CDGH). Produces digests bit-identical to
// the portable path — chosen at runtime only when the CPU has them.
__attribute__((target("sha,sse4.1,ssse3"))) void ProcessBlocksShaNi(
    uint32_t state[8], const uint8_t* data, size_t nblocks) {
  const __m128i kShuf =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i st1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);  // CDAB
  st1 = _mm_shuffle_epi32(st1, 0x1B);  // EFGH
  __m128i st0 = _mm_alignr_epi8(tmp, st1, 8);  // ABEF
  st1 = _mm_blend_epi16(st1, tmp, 0xF0);       // CDGH

  while (nblocks-- > 0) {
    const __m128i abef_save = st0;
    const __m128i cdgh_save = st1;
    __m128i msg, msg0, msg1, msg2, msg3;

    // Rounds 0-3
    msg = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
    msg0 = _mm_shuffle_epi8(msg, kShuf);
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0xE9B5DBA5B5C0FBCFULL, 0x71374491428A2F98ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 4-7
    msg1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
    msg1 = _mm_shuffle_epi8(msg1, kShuf);
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0xAB1C5ED5923F82A4ULL, 0x59F111F13956C25BULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 8-11
    msg2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
    msg2 = _mm_shuffle_epi8(msg2, kShuf);
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0x550C7DC3243185BEULL, 0x12835B01D807AA98ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 12-15
    msg3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
    msg3 = _mm_shuffle_epi8(msg3, kShuf);
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0xC19BF1749BDC06A7ULL, 0x80DEB1FE72BE5D74ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 16-19
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x240CA1CC0FC19DC6ULL, 0xEFBE4786E49B69C1ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 20-23
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x76F988DA5CB0A9DCULL, 0x4A7484AA2DE92C6FULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 24-27
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0xBF597FC7B00327C8ULL, 0xA831C66D983E5152ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 28-31
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0x1429296706CA6351ULL, 0xD5A79147C6E00BF3ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 32-35
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x53380D134D2C6DFCULL, 0x2E1B213827B70A85ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 36-39
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x92722C8581C2C92EULL, 0x766A0ABB650A7354ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg0 = _mm_sha256msg1_epu32(msg0, msg1);

    // Rounds 40-43
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0xC76C51A3C24B8B70ULL, 0xA81A664BA2BFE8A1ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg1 = _mm_sha256msg1_epu32(msg1, msg2);

    // Rounds 44-47
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0x106AA070F40E3585ULL, 0xD6990624D192E819ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg3, msg2, 4);
    msg0 = _mm_add_epi32(msg0, tmp);
    msg0 = _mm_sha256msg2_epu32(msg0, msg3);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg2 = _mm_sha256msg1_epu32(msg2, msg3);

    // Rounds 48-51
    msg = _mm_add_epi32(
        msg0, _mm_set_epi64x(0x34B0BCB52748774CULL, 0x1E376C0819A4C116ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg0, msg3, 4);
    msg1 = _mm_add_epi32(msg1, tmp);
    msg1 = _mm_sha256msg2_epu32(msg1, msg0);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);
    msg3 = _mm_sha256msg1_epu32(msg3, msg0);

    // Rounds 52-55
    msg = _mm_add_epi32(
        msg1, _mm_set_epi64x(0x682E6FF35B9CCA4FULL, 0x4ED8AA4A391C0CB3ULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg1, msg0, 4);
    msg2 = _mm_add_epi32(msg2, tmp);
    msg2 = _mm_sha256msg2_epu32(msg2, msg1);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 56-59
    msg = _mm_add_epi32(
        msg2, _mm_set_epi64x(0x8CC7020884C87814ULL, 0x78A5636F748F82EEULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    tmp = _mm_alignr_epi8(msg2, msg1, 4);
    msg3 = _mm_add_epi32(msg3, tmp);
    msg3 = _mm_sha256msg2_epu32(msg3, msg2);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    // Rounds 60-63
    msg = _mm_add_epi32(
        msg3, _mm_set_epi64x(0xC67178F2BEF9A3F7ULL, 0xA4506CEB90BEFFFAULL));
    st1 = _mm_sha256rnds2_epu32(st1, st0, msg);
    msg = _mm_shuffle_epi32(msg, 0x0E);
    st0 = _mm_sha256rnds2_epu32(st0, st1, msg);

    st0 = _mm_add_epi32(st0, abef_save);
    st1 = _mm_add_epi32(st1, cdgh_save);
    data += 64;
  }

  tmp = _mm_shuffle_epi32(st0, 0x1B);  // FEBA
  st1 = _mm_shuffle_epi32(st1, 0xB1);  // DCHG
  st0 = _mm_blend_epi16(tmp, st1, 0xF0);  // DCBA
  st1 = _mm_alignr_epi8(st1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), st0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), st1);
}

bool CpuHasShaNi() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
}

const bool kUseShaNi = CpuHasShaNi();

#endif  // FB_SHA256_X86_DISPATCH

}  // namespace

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::ProcessBlock(const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (uint32_t{block[i * 4]} << 24) | (uint32_t{block[i * 4 + 1]} << 16) |
           (uint32_t{block[i * 4 + 2]} << 8) | uint32_t{block[i * 4 + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    w[i] = SmallSigma1(w[i - 2]) + w[i - 7] + SmallSigma0(w[i - 15]) +
           w[i - 16];
  }

  uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 64; ++i) {
    const uint32_t t1 = h + BigSigma1(e) + Ch(e, f, g) + kK[i] + w[i];
    const uint32_t t2 = BigSigma0(a) + Maj(a, b, c);
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::Update(Slice data) {
  // An empty Slice may carry a null data(); memcpy from it is undefined
  // even for zero bytes.
  if (data.size() == 0) return;
  total_len_ += data.size();
  const uint8_t* p = data.data();
  size_t n = data.size();

  if (buffer_len_ > 0) {
    const size_t take = std::min(n, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ == sizeof(buffer_)) {
#ifdef FB_SHA256_X86_DISPATCH
      if (kUseShaNi) {
        ProcessBlocksShaNi(state_, buffer_, 1);
      } else {
        ProcessBlock(buffer_);
      }
#else
      ProcessBlock(buffer_);
#endif
      buffer_len_ = 0;
    }
  }
#ifdef FB_SHA256_X86_DISPATCH
  if (kUseShaNi && n >= 64) {
    const size_t nblocks = n / 64;
    ProcessBlocksShaNi(state_, p, nblocks);
    p += nblocks * 64;
    n -= nblocks * 64;
  }
#endif
  while (n >= 64) {
    ProcessBlock(p);
    p += 64;
    n -= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_, p, n);
    buffer_len_ = n;
  }
}

Sha256::Digest Sha256::Finalize() {
  const uint64_t bit_len = total_len_ * 8;

  // Padding: 0x80, zeros, then the 64-bit big-endian message length.
  uint8_t pad[64 + 8] = {0x80};
  const size_t rem = buffer_len_;
  const size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  Update(Slice(pad, pad_len));

  uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<uint8_t>(bit_len >> (56 - i * 8));
  }
  // Update() above counted padding into total_len_, which is fine: bit_len
  // was captured first.
  Update(Slice(len_bytes, 8));

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return out;
}

std::string HexEncode(Slice data) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (uint8_t b : data) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

namespace {
int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

Bytes HexDecode(std::string_view hex) {
  if (hex.size() % 2 != 0) return {};
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = HexVal(hex[i]);
    const int lo = HexVal(hex[i + 1]);
    if (hi < 0 || lo < 0) return {};
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

}  // namespace fb
