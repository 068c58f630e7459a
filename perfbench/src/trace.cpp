#include "trace.hpp"

#include <fstream>
#include <map>

namespace perfbench {

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(micros(s.end - s.start));
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  // Self time: a span's duration minus the time its children cover. The
  // benchmark's child spans never overlap each other, so a plain sum is
  // the covered part.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += micros(s.end - s.start);
    }
  }
  struct Summary {
    std::vector<double> durations;
    double self_us = 0;
  };
  std::map<std::string_view, Summary> by_name;  // names are literals
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Summary& sum = by_name[spans_[i].name];
    const double d = micros(spans_[i].end - spans_[i].start);
    sum.durations.push_back(d);
    sum.self_us += d - child_us[i];
  }
  std::ofstream os(path);
  os << "# summary: name,count,total_us,p50_us,self_us\n";
  for (const auto& [name, sum] : by_name) {
    double total = 0;
    for (double d : sum.durations) total += d;
    os << name << ',' << sum.durations.size() << ',' << total << ','
       << median(sum.durations) << ',' << sum.self_us << '\n';
  }
  os << "# spans: index,parent,name,request,start_us,end_us\n";
  const Clock::time_point t0 =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size() && i < kRawSpans; ++i) {
    const Span& s = spans_[i];
    os << i << ',' << s.parent << ',' << s.name << ',' << s.request << ','
       << micros(s.start - t0) << ',' << micros(s.end - t0) << '\n';
  }
}

}  // namespace perfbench
