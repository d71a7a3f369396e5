#include "src/db/shape_database.h"

#include <algorithm>
#include <set>

#include "src/common/strings.h"

namespace dess {

int ShapeDatabase::Insert(ShapeRecord record) {
  record.id = next_id_++;
  const int id = record.id;
  index_.emplace(id, records_.size());
  records_.push_back(std::make_shared<const ShapeRecord>(std::move(record)));
  return id;
}

Status ShapeDatabase::InsertWithId(ShapeRecord record) {
  if (record.id < 0) {
    return Status::InvalidArgument(
        StrFormat("InsertWithId: negative id %d", record.id));
  }
  if (Contains(record.id)) {
    return Status::AlreadyExists(
        StrFormat("InsertWithId: id %d already in database", record.id));
  }
  next_id_ = std::max(next_id_, record.id + 1);
  index_.emplace(record.id, records_.size());
  records_.push_back(std::make_shared<const ShapeRecord>(std::move(record)));
  return Status::OK();
}

std::shared_ptr<const ShapeDatabase> ShapeDatabase::PrefixView(
    size_t n) const {
  auto view = std::make_shared<ShapeDatabase>();
  const size_t count = std::min(n, records_.size());
  view->records_.assign(records_.begin(), records_.begin() + count);
  view->index_.reserve(count);
  for (size_t i = 0; i < count; ++i) view->index_[view->records_[i]->id] = i;
  view->next_id_ = next_id_;
  return view;
}

Result<const ShapeRecord*> ShapeDatabase::Get(int id) const {
  auto it = index_.find(id);
  if (it == index_.end()) {
    return Status::NotFound(StrFormat("shape id %d not in database", id));
  }
  return records_[it->second].get();
}

bool ShapeDatabase::Contains(int id) const {
  return index_.find(id) != index_.end();
}

std::vector<int> ShapeDatabase::AllIds() const {
  std::vector<int> ids;
  ids.reserve(records_.size());
  for (const RecordPtr& r : records_) ids.push_back(r->id);
  return ids;
}

std::vector<int> ShapeDatabase::GroupMembers(int group) const {
  std::vector<int> ids;
  for (const RecordPtr& r : records_) {
    if (r->group == group) ids.push_back(r->id);
  }
  return ids;
}

int ShapeDatabase::GroupSize(int group) const {
  return static_cast<int>(GroupMembers(group).size());
}

int ShapeDatabase::NumGroups() const {
  std::set<int> groups;
  for (const RecordPtr& r : records_) {
    if (r->group != kUngrouped) groups.insert(r->group);
  }
  return static_cast<int>(groups.size());
}

Result<std::vector<double>> ShapeDatabase::Feature(int id,
                                                   FeatureKind kind) const {
  return Feature(id, static_cast<int>(kind));
}

Result<std::vector<double>> ShapeDatabase::Feature(int id, int ordinal) const {
  DESS_ASSIGN_OR_RETURN(const ShapeRecord* rec, Get(id));
  if (ordinal < 0 || ordinal >= rec->signature.NumSpaces()) {
    return Status::InvalidArgument(StrFormat(
        "shape %d carries no feature at space ordinal %d", id, ordinal));
  }
  return rec->signature.At(ordinal).values;
}

FeatureStats ShapeDatabase::ComputeFeatureStats(FeatureKind kind) const {
  return ComputeFeatureStats(static_cast<int>(kind));
}

FeatureStats ShapeDatabase::ComputeFeatureStats(int ordinal) const {
  std::vector<std::vector<double>> vectors;
  vectors.reserve(records_.size());
  for (const RecordPtr& r : records_) {
    vectors.push_back(r->signature.At(ordinal).values);
  }
  return FeatureStats::Compute(vectors);
}

}  // namespace dess
