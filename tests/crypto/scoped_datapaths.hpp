// Test helpers for running code on a chosen crypto datapath.
//
// ScopedDatapaths sets the process-wide selection through the one test hook
// (crypto::set_datapaths_for_testing) and restores the previous one when it
// goes out of scope. Contexts capture the selection at construction, so
// build them while the guard is alive.
#pragma once

#include <cctype>
#include <string>
#include <vector>

#include "crypto/aes128.hpp"
#include "crypto/backend.hpp"

namespace secbus::crypto {

class ScopedDatapaths {
 public:
  explicit ScopedDatapaths(Datapaths selection) noexcept
      : saved_(datapaths()) {
    set_datapaths_for_testing(selection);
  }
  explicit ScopedDatapaths(AesImpl aes) noexcept
      : ScopedDatapaths(Datapaths{aes, datapaths().sha}) {}
  explicit ScopedDatapaths(ShaImpl sha) noexcept
      : ScopedDatapaths(Datapaths{datapaths().aes, sha}) {}
  ~ScopedDatapaths() { set_datapaths_for_testing(saved_); }
  ScopedDatapaths(const ScopedDatapaths&) = delete;
  ScopedDatapaths& operator=(const ScopedDatapaths&) = delete;

 private:
  Datapaths saved_;
};

// An AES context on `impl`.
inline Aes128 aes_on(AesImpl impl, const Aes128Key& key) {
  const ScopedDatapaths datapath(impl);
  return Aes128(key);
}

// Every datapath this build and CPU can run.
inline std::vector<AesImpl> supported_aes_impls() {
  std::vector<AesImpl> impls{AesImpl::kTTable, AesImpl::kScalar};
  if (aes_impl_supported(AesImpl::kAesni)) impls.push_back(AesImpl::kAesni);
  return impls;
}

inline std::vector<ShaImpl> supported_sha_impls() {
  std::vector<ShaImpl> impls{ShaImpl::kPortable};
  if (sha_impl_supported(ShaImpl::kShaNi)) impls.push_back(ShaImpl::kShaNi);
  return impls;
}

// The datapath pairs a whole simulation is checked on: the scalar
// reference, the portable T-table datapath and, when the host has AES-NI
// or SHA-NI, the hardware pair CPUID selects.
inline std::vector<Datapaths> supported_datapath_pairs() {
  std::vector<Datapaths> pairs{{AesImpl::kScalar, ShaImpl::kPortable},
                               {AesImpl::kTTable, ShaImpl::kPortable}};
  const Datapaths hw{aes_impl_supported(AesImpl::kAesni) ? AesImpl::kAesni
                                                         : AesImpl::kTTable,
                     sha_impl_supported(ShaImpl::kShaNi) ? ShaImpl::kShaNi
                                                         : ShaImpl::kPortable};
  if (hw != pairs.back()) pairs.push_back(hw);
  return pairs;
}

// gtest parameter names: the datapath's name, alphanumerics only
// ("aesni").
struct ImplName {
  template <typename Info>
  std::string operator()(const Info& info) const {
    std::string name = to_string(info.param);
    std::erase_if(name, [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) == 0;
    });
    return name;
  }
};

}  // namespace secbus::crypto
