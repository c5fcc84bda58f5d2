#include "tracing.hpp"

#include <cstdio>

namespace netclone::benchmark {

namespace {

constexpr const char* kSiteNames[] = {
    "host.make",    "host.exec_time", "host.execute",
    "kv.get",       "kv.scan",        "kv.set",
};
static_assert(std::size(kSiteNames) ==
              static_cast<std::size_t>(Site::kCount));

Site execute_site(wire::RpcOp op) {
  switch (op) {
    case wire::RpcOp::kGet:
      return Site::kExecGet;
    case wire::RpcOp::kScan:
      return Site::kExecScan;
    case wire::RpcOp::kSet:
      return Site::kExecSet;
    case wire::RpcOp::kSynthetic:
      break;
  }
  return Site::kExecOther;
}

}  // namespace

void SpanRecorder::begin_phase(const char* name) {
  const std::int64_t now = since_origin(Clock::now());
  spans_.push_back(
      Span{name, now, now, static_cast<std::uint32_t>(spans_.size() + 1), 0});
  open_phase_ = spans_.size();
}

void SpanRecorder::end_phase() {
  if (open_phase_ != 0) {
    spans_[open_phase_ - 1].end_ns = since_origin(Clock::now());
    open_phase_ = 0;
  }
}

void SpanRecorder::sample(Site site, Clock::time_point start,
                          Clock::time_point end) {
  const std::uint32_t parent =
      open_phase_ == 0 ? 0 : spans_[open_phase_ - 1].id;
  spans_.push_back(Span{kSiteNames[static_cast<std::size_t>(site)],
                        since_origin(start), since_origin(end),
                        static_cast<std::uint32_t>(spans_.size() + 1),
                        parent});
}

double SpanRecorder::decorated_s() const {
  std::uint64_t ns = 0;
  for (const Totals& t : totals_) {
    ns += t.ns;
  }
  return static_cast<double>(ns) / 1e9;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %u, \"parent\": %u}}%s\n",
                 s.name, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.id,
                 s.parent, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

wire::RpcRequest TimedFactory::make(Rng& rng) {
  const auto start = Clock::now();
  wire::RpcRequest req = inner_->make(rng);
  recorder_.record(Site::kMake, start, Clock::now());
  return req;
}

SimTime TimedService::execution_time(const wire::RpcRequest& req, Rng& rng) {
  const auto start = Clock::now();
  const SimTime t = inner_->execution_time(req, rng);
  recorder_.record(Site::kExecTime, start, Clock::now());
  return t;
}

wire::RpcResponse TimedService::execute(const wire::RpcRequest& req) {
  const auto start = Clock::now();
  wire::RpcResponse resp = inner_->execute(req);
  recorder_.record(execute_site(req.op), start, Clock::now());
  return resp;
}

}  // namespace netclone::benchmark
