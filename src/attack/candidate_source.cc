#include "attack/candidate_source.h"

#include <numeric>
#include <utility>

#include "geo/bounding_box.h"

namespace wcop {
namespace attack {

Result<size_t> CandidateSource::FindByKey(int64_t key) const {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) {
    return Status::NotFound("no candidate with truth key " +
                            std::to_string(key));
  }
  return it->second;
}

const CandidateSource::Packed& CandidateSource::packed() const {
  std::call_once(packed_->once, [this] {
    const size_t n = size();
    std::vector<uint32_t> ids(n);
    std::iota(ids.begin(), ids.end(), 0u);
    std::vector<XytBox> boxes(n);
    for (size_t i = 0; i < n; ++i) {
      const store::StoreEntry& e = entry(i);
      boxes[i] = {e.min_x, e.max_x, e.min_y, e.max_y, e.t_min, e.t_max};
    }
    packed_->tree = BoxTree(ids, boxes);
    const std::vector<uint32_t>& items = packed_->tree.items();
    packed_->position.resize(n);
    for (size_t p = 0; p < items.size(); ++p) {
      packed_->position[items[p]] = static_cast<uint32_t>(p);
    }
  });
  return *packed_;
}

const BoxTree& CandidateSource::tree() const { return packed().tree; }

uint32_t CandidateSource::TreePosition(size_t i) const {
  return packed().position[i];
}

DatasetCandidateSource::DatasetCandidateSource(const Dataset& dataset)
    : dataset_(&dataset) {
  entries_.reserve(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    const Trajectory& t = dataset[i];
    store::StoreEntry e;
    e.id = t.id();
    e.num_points = t.size();
    e.k = t.requirement().k;
    e.delta = t.requirement().delta;
    const BoundingBox box = t.Bounds();
    if (!box.empty()) {
      e.min_x = box.min_x();
      e.min_y = box.min_y();
      e.max_x = box.max_x();
      e.max_y = box.max_y();
    }
    e.t_min = t.StartTime();
    e.t_max = t.EndTime();
    if (by_key_.find(e.id) == by_key_.end()) {
      by_key_.emplace(e.id, i);
    }
    entries_.push_back(e);
  }
}

Result<Trajectory> DatasetCandidateSource::Read(size_t i) const {
  if (i >= dataset_->size()) {
    return Status::InvalidArgument("candidate index out of range");
  }
  return (*dataset_)[i];
}

Result<StoreCandidateSource> StoreCandidateSource::Open(
    const std::string& path, TruthKey truth_key, const RunContext* context) {
  WCOP_ASSIGN_OR_RETURN(store::TrajectoryStoreReader reader,
                        store::TrajectoryStoreReader::Open(path));
  StoreCandidateSource source;
  source.reader_ = std::make_unique<store::TrajectoryStoreReader>(
      std::move(reader));
  const size_t n = source.reader_->size();
  source.keys_.reserve(n);
  if (truth_key == TruthKey::kId) {
    for (size_t i = 0; i < n; ++i) {
      source.keys_.push_back(source.reader_->index()[i].id);
    }
  } else {
    // Window stores: the truth key is the fragment's parent (source)
    // trajectory, recorded only in the block payload — one sequential
    // CRC-checked pass, which also keeps every decoded fragment for Read.
    // Fragments cut from nothing (parent_id == kNoParent) key on their
    // own id.
    source.resident_ = true;
    source.fragments_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (i % 512 == 0) {
        WCOP_RETURN_IF_ERROR(CheckRunContext(context));
      }
      WCOP_ASSIGN_OR_RETURN(Trajectory t, source.reader_->Read(i));
      source.keys_.push_back(t.parent_id() == Trajectory::kNoParent
                                 ? t.id()
                                 : t.parent_id());
      source.fragments_.push_back(std::move(t));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (source.by_key_.find(source.keys_[i]) == source.by_key_.end()) {
      source.by_key_.emplace(source.keys_[i], i);
    }
  }
  return source;
}

Result<Trajectory> StoreCandidateSource::Read(size_t i) const {
  if (!resident_) {
    return reader_->Read(i);
  }
  if (i >= fragments_.size()) {
    return Status::InvalidArgument("candidate index out of range");
  }
  return fragments_[i];
}

}  // namespace attack
}  // namespace wcop
