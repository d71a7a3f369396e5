#include <gtest/gtest.h>

#include "src/common/byte_codec.h"
#include "src/db/shape_database.h"

namespace dess {
namespace {

ShapeRecord MakeRecord(const std::string& name, int group) {
  ShapeRecord r;
  r.name = name;
  r.group = group;
  r.mesh.AddVertex({0, 0, 0});
  r.mesh.AddVertex({1, 0, 0});
  r.mesh.AddVertex({0, 1, 0});
  r.mesh.AddTriangle(0, 1, 2);
  for (FeatureKind kind : AllFeatureKinds()) {
    FeatureVector& fv = r.signature.Mutable(kind);
    fv.kind = kind;
    fv.values.assign(FeatureDim(kind),
                     static_cast<double>(group) + 0.5);
  }
  return r;
}

class DbTest : public ::testing::Test {};

TEST_F(DbTest, InsertAssignsSequentialIds) {
  ShapeDatabase db;
  EXPECT_EQ(db.Insert(MakeRecord("a", 0)), 0);
  EXPECT_EQ(db.Insert(MakeRecord("b", 0)), 1);
  EXPECT_EQ(db.Insert(MakeRecord("c", 1)), 2);
  EXPECT_EQ(db.NumShapes(), 3u);
  EXPECT_TRUE(db.Contains(1));
  EXPECT_FALSE(db.Contains(7));
}

TEST_F(DbTest, GetReturnsRecordOrNotFound) {
  ShapeDatabase db;
  db.Insert(MakeRecord("a", 2));
  auto rec = db.Get(0);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ((*rec)->name, "a");
  EXPECT_EQ(db.Get(9).status().code(), StatusCode::kNotFound);
}

TEST_F(DbTest, GroupQueries) {
  ShapeDatabase db;
  db.Insert(MakeRecord("a", 0));
  db.Insert(MakeRecord("b", 0));
  db.Insert(MakeRecord("c", 1));
  db.Insert(MakeRecord("noise", kUngrouped));
  EXPECT_EQ(db.GroupSize(0), 2);
  EXPECT_EQ(db.GroupSize(1), 1);
  EXPECT_EQ(db.NumGroups(), 2);
  const auto members = db.GroupMembers(0);
  EXPECT_EQ(members.size(), 2u);
}

TEST_F(DbTest, FeatureAccess) {
  ShapeDatabase db;
  db.Insert(MakeRecord("a", 3));
  auto f = db.Feature(0, FeatureKind::kPrincipalMoments);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->size(), static_cast<size_t>(FeatureDim(
                            FeatureKind::kPrincipalMoments)));
  EXPECT_DOUBLE_EQ((*f)[0], 3.5);
  EXPECT_FALSE(db.Feature(5, FeatureKind::kSpectral).ok());
}

TEST_F(DbTest, ComputeFeatureStats) {
  ShapeDatabase db;
  db.Insert(MakeRecord("a", 0));  // features all 0.5
  db.Insert(MakeRecord("b", 2));  // features all 2.5
  const FeatureStats stats =
      db.ComputeFeatureStats(FeatureKind::kPrincipalMoments);
  EXPECT_DOUBLE_EQ(stats.mean[0], 1.5);
  EXPECT_DOUBLE_EQ(stats.stddev[0], 1.0);
  const auto z = stats.Standardize({2.5, 2.5, 2.5});
  EXPECT_DOUBLE_EQ(z[0], 1.0);
}

TEST_F(DbTest, BinaryWriterReaderPrimitives) {
  ByteWriter w;
  w.WriteU8(7);
  w.WriteU32(0xDEADBEEF);
  w.WriteI32(-42);
  w.WriteF64(3.25);
  w.WriteString("hello");
  w.WriteF64Vector({1.0, 2.0});
  w.WriteI32Vector({-1, 5});
  const std::string bytes = w.Take();
  // Strings and vectors carry a u64 count, then their entries.
  EXPECT_EQ(bytes.size(), 1u + 4 + 4 + 8 + (8 + 5) + (8 + 16) + (8 + 8));

  ByteReader r(bytes);
  uint8_t b = 0;
  uint32_t u = 0;
  int32_t i = 0;
  double d = 0;
  std::string s;
  std::vector<double> v;
  std::vector<int> ints;
  EXPECT_TRUE(r.ReadU8(&b));
  EXPECT_EQ(b, 7);
  EXPECT_TRUE(r.ReadU32(&u));
  EXPECT_EQ(u, 0xDEADBEEF);
  EXPECT_TRUE(r.ReadI32(&i));
  EXPECT_EQ(i, -42);
  EXPECT_TRUE(r.ReadF64(&d));
  EXPECT_EQ(d, 3.25);
  EXPECT_TRUE(r.ReadString(&s));
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(r.ReadF64Vector(&v));
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[1], 2.0);
  EXPECT_TRUE(r.ReadI32Vector(&ints));
  EXPECT_EQ(ints, (std::vector<int>{-1, 5}));
  EXPECT_TRUE(r.AtEnd());
  // Reading past the end fails cleanly, and the reader stays failed.
  EXPECT_FALSE(r.ReadU32(&u));
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.AtEnd());

  // A count prefix larger than the bytes left fails before any entry is
  // read or allocated.
  ByteWriter giant;
  giant.WriteU64(uint64_t{1} << 60);
  giant.WriteF64(1.0);
  ByteReader short_reader(giant.bytes());
  EXPECT_FALSE(short_reader.ReadF64Vector(&v));
  EXPECT_FALSE(short_reader.ok());
}

}  // namespace
}  // namespace dess
