#include "sim/coverage.hpp"

namespace specure::sim {

void CoverageRecorder::branch(std::string_view site, bool taken) {
  points_.insert("b:" + std::string(site) + (taken ? ":t" : ":n"));
}

void CoverageRecorder::fsm(std::string_view machine, std::uint32_t state) {
  points_.insert("f:" + std::string(machine) + ":" + std::to_string(state));
}

void CoverageRecorder::condition(std::string_view site, bool value) {
  points_.insert("c:" + std::string(site) + (value ? ":1" : ":0"));
}

std::size_t CoverageRecorder::merge(const CoverageRecorder& other) {
  std::size_t fresh = 0;
  for (const auto& p : other.points_) {
    fresh += points_.insert(p).second;
  }
  toggle_bits_ += other.toggle_bits_;
  return fresh;
}

void CoverageRecorder::clear() {
  points_.clear();
  toggle_bits_ = 0;
}

}  // namespace specure::sim
