#ifndef DESS_DB_SHAPE_DATABASE_H_
#define DESS_DB_SHAPE_DATABASE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/features/feature_vector.h"
#include "src/geom/trimesh.h"

namespace dess {

/// One stored shape: geometry plus its extracted signature plus catalog
/// metadata. `group` carries the ground-truth classification map used by
/// the effectiveness experiments (kUngrouped when unknown).
struct ShapeRecord {
  int id = -1;
  std::string name;
  int group = -1;
  TriMesh mesh;
  ShapeSignature signature;
};

inline constexpr int kUngrouped = -1;

/// The DATABASE layer of the paper's three-tier architecture (the paper
/// used Oracle 8i as a feature/geometry store; this is an in-memory record
/// store, persisted as the record sections of a snapshot — see
/// src/db/serialization.h). Multidimensional indexes are built *on top of*
/// this store by the search engine, exactly as in the paper.
///
/// Records are immutable once inserted and held by shared_ptr, so:
///  - record pointers returned by Get() stay valid across later Inserts
///    (the pointer vector may reallocate; the records themselves never
///    move), and
///  - SnapshotView() produces a frozen, shareable view of the store in
///    O(#records) pointer copies — no geometry or feature data is copied.
///    This is what makes snapshot-isolated serving cheap: every Commit()
///    freezes the store without deep-copying it.
///
/// The database itself is not synchronized: writers (Insert) must be
/// externally serialized, and a SnapshotView must be taken under the same
/// exclusion. Readers of a SnapshotView need no locking at all.
class ShapeDatabase {
 public:
  using RecordPtr = std::shared_ptr<const ShapeRecord>;

  /// Lightweight range over the stored records yielding `const
  /// ShapeRecord&`, so `for (const ShapeRecord& rec : db.records())` works
  /// unchanged over the shared-pointer storage.
  class RecordRange {
   public:
    class const_iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = ShapeRecord;
      using difference_type = std::ptrdiff_t;
      using pointer = const ShapeRecord*;
      using reference = const ShapeRecord&;

      explicit const_iterator(std::vector<RecordPtr>::const_iterator it)
          : it_(it) {}
      reference operator*() const { return **it_; }
      pointer operator->() const { return it_->get(); }
      const_iterator& operator++() {
        ++it_;
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator tmp = *this;
        ++it_;
        return tmp;
      }
      bool operator==(const const_iterator& o) const { return it_ == o.it_; }
      bool operator!=(const const_iterator& o) const { return it_ != o.it_; }

     private:
      std::vector<RecordPtr>::const_iterator it_;
    };

    explicit RecordRange(const std::vector<RecordPtr>* records)
        : records_(records) {}
    const_iterator begin() const {
      return const_iterator(records_->begin());
    }
    const_iterator end() const { return const_iterator(records_->end()); }
    size_t size() const { return records_->size(); }
    bool empty() const { return records_->empty(); }

   private:
    const std::vector<RecordPtr>* records_;
  };

  ShapeDatabase() = default;

  size_t NumShapes() const { return records_.size(); }
  bool IsEmpty() const { return records_.empty(); }

  /// Inserts a record, assigning and returning a fresh database id
  /// (any id on the input record is ignored). The record is frozen on
  /// insertion; there is no mutation API.
  int Insert(ShapeRecord record);

  /// Inserts a record preserving `record.id` — the load path of the
  /// persistence layer, which must reproduce a saved store exactly.
  /// InvalidArgument for negative ids, AlreadyExists for duplicates;
  /// future Insert() calls continue above the highest id seen.
  Status InsertWithId(ShapeRecord record);

  /// Record by id; NotFound if absent. The pointer stays valid for the
  /// lifetime of any view holding the record (it is not invalidated by
  /// later Inserts).
  Result<const ShapeRecord*> Get(int id) const;

  bool Contains(int id) const;

  /// All ids in insertion order.
  std::vector<int> AllIds() const;

  /// Ids of every shape in the given group.
  std::vector<int> GroupMembers(int group) const;

  /// Size of the given group.
  int GroupSize(int group) const;

  /// Number of distinct non-ungrouped groups.
  int NumGroups() const;

  /// The feature vector of one shape for one feature kind.
  Result<std::vector<double>> Feature(int id, FeatureKind kind) const;

  /// The feature vector of one shape at one registry ordinal; NotFound for
  /// an unknown id, InvalidArgument when the shape's signature carries no
  /// vector at that ordinal.
  Result<std::vector<double>> Feature(int id, int ordinal) const;

  /// All records (for scans, clustering, stats).
  RecordRange records() const { return RecordRange(&records_); }

  /// A frozen, immutable view of the current contents: shares the (already
  /// immutable) records, so the copy is cheap. Later Inserts into this
  /// database do not affect the view.
  std::shared_ptr<const ShapeDatabase> SnapshotView() const {
    return std::make_shared<const ShapeDatabase>(*this);
  }

  /// A frozen view of the first `n` records in insertion order (all of
  /// them when n >= NumShapes()). The incremental-commit paths use this to
  /// name a committed prefix of the store while later ingests stay
  /// pending: WAL recovery republishes exactly the records a commit marker
  /// covered, and background compaction folds the committed records
  /// without freezing uncommitted ones in.
  std::shared_ptr<const ShapeDatabase> PrefixView(size_t n) const;

  /// Per-dimension statistics of one feature kind across the database,
  /// used to standardize the similarity metric.
  FeatureStats ComputeFeatureStats(FeatureKind kind) const;
  FeatureStats ComputeFeatureStats(int ordinal) const;

 private:
  std::vector<RecordPtr> records_;
  std::unordered_map<int, size_t> index_;  // id -> position in records_
  int next_id_ = 0;
};

}  // namespace dess

#endif  // DESS_DB_SHAPE_DATABASE_H_
