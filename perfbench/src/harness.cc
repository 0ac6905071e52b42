#include "harness.h"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>

namespace perfbench {

uint64_t RunConfig::RoundOps(double nominal_ops_per_s) const {
  const double n = nominal_ops_per_s * static_cast<double>(seconds) /
                   static_cast<double>(kRounds);
  return n < 1 ? 1 : static_cast<uint64_t>(n);
}

double Median(const std::vector<double>& v) {
  fb::LatencyRecorder rec;
  for (double x : v) rec.Record(x);
  return rec.Percentile(50);
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : all_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  all_.push_back(Metric{name, value, unit});
}

const Metric* MetricSet::Find(const std::string& name) const {
  for (const Metric& m : all_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void RoundResult::Error(const std::string& what) {
  // Keep the first few messages; the count is what fails the run.
  if (errors.size() < 16) errors.push_back(what);
  else if (errors.size() == 16) errors.push_back("(further errors elided)");
}

void Encoder::Raw(const void* p, size_t n) {
  out_.append(static_cast<const char*>(p), n);
}

void Encoder::Str(const std::string& s) {
  U64(s.size());
  out_ += s;
}

void Encoder::Samples(fb::LatencyRecorder rec) {
  const std::vector<double>& v = rec.sorted();
  U64(v.size());
  Raw(v.data(), v.size() * sizeof(double));
}

bool Decoder::Raw(void* p, size_t n) {
  if (!ok_ || in_.size() - pos_ < n) {
    ok_ = false;
    std::memset(p, 0, n);
    return false;
  }
  std::memcpy(p, in_.data() + pos_, n);
  pos_ += n;
  return true;
}

uint64_t Decoder::U64() {
  uint64_t v;
  Raw(&v, sizeof(v));
  return v;
}

double Decoder::F64() {
  double v;
  Raw(&v, sizeof(v));
  return v;
}

std::string Decoder::Str() {
  const uint64_t n = U64();
  if (!ok_ || in_.size() - pos_ < n) {
    ok_ = false;
    return "";
  }
  std::string s = in_.substr(pos_, n);
  pos_ += n;
  return s;
}

fb::LatencyRecorder Decoder::Samples() {
  const uint64_t n = U64();
  fb::LatencyRecorder rec;
  if (!ok_ || (in_.size() - pos_) / sizeof(double) < n) {
    ok_ = false;
    return rec;
  }
  for (uint64_t i = 0; i < n; ++i) rec.Record(F64());
  return rec;
}

void EncodeRound(const RoundResult& r, Encoder* e) {
  e->F64(r.setup_s);
  e->F64(r.elapsed_s);
  e->F64(r.cpu_s);
  e->U64(r.attempted);
  e->U64(r.failed);
  e->Samples(r.read);
  e->Samples(r.write);
  e->Samples(r.history);
  e->F64(r.space_amp);
  e->U64(r.layer.all().size());
  for (const Metric& m : r.layer.all()) {
    e->Str(m.name);
    e->F64(m.value);
    e->Str(m.unit);
  }
  e->U64(r.env.size());
  for (const auto& [k, v] : r.env) {
    e->Str(k);
    e->Str(v);
  }
  e->U64(r.errors.size());
  for (const std::string& err : r.errors) e->Str(err);
}

RoundResult DecodeRound(Decoder* d) {
  RoundResult r;
  r.setup_s = d->F64();
  r.elapsed_s = d->F64();
  r.cpu_s = d->F64();
  r.attempted = d->U64();
  r.failed = d->U64();
  r.read = d->Samples();
  r.write = d->Samples();
  r.history = d->Samples();
  r.space_amp = d->F64();
  for (uint64_t n = d->U64(); d->ok() && n > 0; --n) {
    const std::string name = d->Str();
    const double value = d->F64();
    r.layer.Set(name, value, d->Str());
  }
  for (uint64_t n = d->U64(); d->ok() && n > 0; --n) {
    std::string k = d->Str();
    r.env.emplace_back(std::move(k), d->Str());
  }
  for (uint64_t n = d->U64(); d->ok() && n > 0; --n) {
    r.errors.push_back(d->Str());
  }
  return r;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double ChildPeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string FilesystemType(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
