#include "crypto/backend.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define SECBUS_HAVE_CPUID 1
#endif

namespace secbus::crypto {

namespace {

CpuFeatures detect_features() noexcept {
  CpuFeatures f;
#ifdef SECBUS_HAVE_CPUID
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0) {
    f.ssse3 = (ecx & (1u << 9)) != 0;
    f.sse41 = (ecx & (1u << 19)) != 0;
    f.aesni = (ecx & (1u << 25)) != 0;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    f.sha_ni = (ebx & (1u << 29)) != 0;
  }
#endif
  return f;
}

// The one place datapaths are chosen: the fastest each primitive supports.
Datapaths select_datapaths() noexcept {
  Datapaths d;
  d.aes = aes_impl_supported(AesImpl::kAesni) ? AesImpl::kAesni
                                              : AesImpl::kTTable;
  d.sha = sha_impl_supported(ShaImpl::kShaNi) ? ShaImpl::kShaNi
                                              : ShaImpl::kPortable;
  return d;
}

Datapaths& selection() noexcept {
  static Datapaths d = select_datapaths();
  return d;
}

}  // namespace

const CpuFeatures& CpuFeatures::detect() noexcept {
  static const CpuFeatures features = detect_features();
  return features;
}

bool aes_impl_supported(AesImpl impl) noexcept {
  if (impl != AesImpl::kAesni) return true;
  return accel::compiled() && CpuFeatures::detect().aesni;
}

bool sha_impl_supported(ShaImpl impl) noexcept {
  if (impl != ShaImpl::kShaNi) return true;
  const CpuFeatures& cpu = CpuFeatures::detect();
  // The SHA-NI message schedule uses SSSE3 shuffles and an SSE4.1 blend;
  // every SHA-capable CPU has both, but check anyway.
  return accel::compiled() && cpu.sha_ni && cpu.ssse3 && cpu.sse41;
}

const Datapaths& datapaths() noexcept { return selection(); }

void set_datapaths_for_testing(Datapaths d) noexcept { selection() = d; }

const char* to_string(AesImpl impl) noexcept {
  switch (impl) {
    case AesImpl::kTTable: return "ttable";
    case AesImpl::kScalar: return "scalar";
    case AesImpl::kAesni: return "aes-ni";
  }
  return "?";
}

const char* to_string(ShaImpl impl) noexcept {
  switch (impl) {
    case ShaImpl::kPortable: return "portable";
    case ShaImpl::kShaNi: return "sha-ni";
  }
  return "?";
}

std::string to_string(const Datapaths& d) {
  std::string out = to_string(d.aes);
  out += '+';
  out += to_string(d.sha);
  return out;
}

std::string datapath_report() {
  const CpuFeatures& cpu = CpuFeatures::detect();
  std::string out;
  out += "cpu features:    ";
  bool any = false;
  const auto add = [&](bool present, const char* name) {
    if (!present) return;
    if (any) out += ' ';
    out += name;
    any = true;
  };
  add(cpu.aesni, "aes-ni");
  add(cpu.ssse3, "ssse3");
  add(cpu.sse41, "sse4.1");
  add(cpu.sha_ni, "sha-ni");
  if (!any) out += "(none relevant)";
  out += '\n';
  out += "accel compiled:  ";
  out += accel::compiled() ? "yes" : "no (built without x86 crypto flags)";
  out += '\n';
  out += "aes datapath:    ";
  out += to_string(datapaths().aes);
  out += '\n';
  out += "sha datapath:    ";
  out += to_string(datapaths().sha);
  out += '\n';
  return out;
}

}  // namespace secbus::crypto
