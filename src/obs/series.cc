#include "obs/series.h"

#include "common/check.h"
#include "obs/json.h"

namespace mron::obs {

Series::Series(std::size_t capacity) : capacity_(capacity) {
  MRON_CHECK_MSG(capacity >= 2, "a series needs room to downsample");
}

void Series::push(SimTime t, double v) {
  const std::uint64_t index = offered_++;
  if (index % stride_ != 0) return;
  if (points_.size() == capacity_) {
    // 2x downsample: keep the even-position points (push indices that are
    // multiples of the doubled stride) and double the acceptance stride.
    // Everything is arithmetic on the push index, so the surviving set is
    // identical for identical push sequences.
    for (std::size_t i = 1; 2 * i < points_.size(); ++i) {
      points_[i] = points_[2 * i];
    }
    points_.resize((points_.size() + 1) / 2);
    stride_ *= 2;
    if (index % stride_ != 0) return;  // odd capacity: sample now off-stride
  }
  points_.push_back(SeriesPoint{t, v});
}

const SeriesPoint& Series::at(std::size_t i) const {
  MRON_CHECK(i < points_.size());
  return points_[i];
}

Series& SeriesStore::series(const std::string& name, std::size_t capacity) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.try_emplace(name, capacity).first;
  }
  return it->second;
}

const Series* SeriesStore::find(const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

bool SeriesStore::has(const std::string& name) const {
  return series_.find(name) != series_.end();
}

std::vector<std::string> SeriesStore::names() const {
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) out.push_back(name);
  return out;
}

void SeriesStore::write_json(std::ostream& os) const {
  JsonWriter w(os);
  write_json(w);
  w.flush();
}

void SeriesStore::write_json(JsonWriter& w) const {
  w.raw("{\"series\":[");
  bool first = true;
  for (const auto& [name, s] : series_) {
    if (!first) w.raw(',');
    first = false;
    w.raw("{\"name\":").string(name);
    w.raw(",\"stride\":").integer(s.stride());
    w.raw(",\"offered\":").integer(s.offered()).raw(",\"points\":[");
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (i > 0) w.raw(',');
      const SeriesPoint& p = s.at(i);
      w.raw('[').number(p.time).raw(',').number(p.value).raw(']');
    }
    w.raw("]}");
  }
  w.raw("]}");
}

}  // namespace mron::obs
