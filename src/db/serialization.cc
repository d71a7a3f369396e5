#include "src/db/serialization.h"

#include <utility>

#include "src/common/byte_codec.h"

namespace dess {
namespace {

/// The smallest encodings the count prefixes are checked against: a
/// catalog with an empty name and no vectors, an id with an empty mesh,
/// one vertex, one triangle.
constexpr size_t kMinCatalogBytes = 4 + 8 + 4 + 4;
constexpr size_t kMinMeshEntryBytes = 4 + 8 + 8;
constexpr size_t kVertexBytes = 3 * sizeof(double);
constexpr size_t kTriangleBytes = 3 * sizeof(uint32_t);

/// Encoded sizes of a catalog and of a mesh entry (id plus mesh).
size_t CatalogBytes(const ShapeRecord& rec) {
  size_t n = kMinCatalogBytes + rec.name.size();
  for (const FeatureVector& fv : rec.signature.features) {
    n += 4 + 8 + fv.values.size() * sizeof(double);
  }
  return n;
}

size_t MeshEntryBytes(const TriMesh& mesh) {
  return kMinMeshEntryBytes + mesh.NumVertices() * kVertexBytes +
         mesh.NumTriangles() * kTriangleBytes;
}

void EncodeCatalog(const ShapeRecord& rec, ByteWriter* w) {
  w->WriteI32(rec.id);
  w->WriteString(rec.name);
  w->WriteI32(rec.group);
  const int nf = rec.signature.NumSpaces();
  w->WriteU32(static_cast<uint32_t>(nf));
  for (int f = 0; f < nf; ++f) {
    w->WriteU32(static_cast<uint32_t>(f));
    w->WriteF64Vector(rec.signature.At(f).values);
  }
}

Status DecodeCatalog(ByteReader* r, const FeatureSpaceRegistry& registry,
                     const std::string& source, ShapeRecord* rec) {
  int32_t id = 0, group = 0;
  uint32_t nf = 0;
  const uint32_t num_spaces = static_cast<uint32_t>(registry.size());
  if (!r->ReadI32(&id) || !r->ReadString(&rec->name) ||
      !r->ReadI32(&group) || !r->ReadU32(&nf) || nf != num_spaces) {
    return Status::DataLoss("bad record catalog in " + source);
  }
  rec->id = id;
  rec->group = group;
  for (uint32_t f = 0; f < nf; ++f) {
    uint32_t ordinal = 0;
    std::vector<double> values;
    if (!r->ReadU32(&ordinal) || ordinal >= num_spaces ||
        !r->ReadF64Vector(&values) ||
        values.size() != static_cast<size_t>(registry.dim(ordinal))) {
      return Status::DataLoss("bad feature vector in " + source);
    }
    FeatureVector& fv = rec->signature.MutableAt(static_cast<int>(ordinal));
    fv.kind = static_cast<FeatureKind>(ordinal);
    fv.space = registry.id(ordinal);
    fv.values = std::move(values);
  }
  return Status::OK();
}

void EncodeMesh(const TriMesh& mesh, ByteWriter* w) {
  w->WriteU64(mesh.NumVertices());
  for (const Vec3& v : mesh.vertices()) {
    w->WriteF64(v.x);
    w->WriteF64(v.y);
    w->WriteF64(v.z);
  }
  w->WriteU64(mesh.NumTriangles());
  for (const auto& t : mesh.triangles()) {
    w->WriteU32(t[0]);
    w->WriteU32(t[1]);
    w->WriteU32(t[2]);
  }
}

Status DecodeMesh(ByteReader* r, const std::string& source, TriMesh* mesh) {
  // The counts fit in the bytes left, so the fixed-width reads below
  // cannot run short.
  uint64_t nv = 0;
  if (!r->ReadCount(kVertexBytes, &nv)) {
    return Status::DataLoss("bad mesh vertex count in " + source);
  }
  for (uint64_t v = 0; v < nv; ++v) {
    double x = 0, y = 0, z = 0;
    r->ReadF64(&x);
    r->ReadF64(&y);
    r->ReadF64(&z);
    mesh->AddVertex({x, y, z});
  }
  uint64_t nt = 0;
  if (!r->ReadCount(kTriangleBytes, &nt)) {
    return Status::DataLoss("bad mesh triangle count in " + source);
  }
  for (uint64_t t = 0; t < nt; ++t) {
    uint32_t a = 0, b = 0, c = 0;
    r->ReadU32(&a);
    r->ReadU32(&b);
    r->ReadU32(&c);
    if (a >= nv || b >= nv || c >= nv) {
      return Status::DataLoss("mesh triangle index out of range in " +
                              source);
    }
    mesh->AddTriangle(a, b, c);
  }
  return Status::OK();
}

Status ExpectEnd(const ByteReader& r, const std::string& source) {
  if (!r.AtEnd()) return Status::DataLoss("trailing bytes in " + source);
  return Status::OK();
}

}  // namespace

// The section encoders size their buffer first: a section can run to
// megabytes, and one allocation of the final size is returned to the
// system when freed, where a chain of doublings can stay resident.
std::string EncodeRecordsSection(const ShapeDatabase& db) {
  size_t size = 8;
  for (const ShapeRecord& rec : db.records()) size += CatalogBytes(rec);
  ByteWriter w;
  w.Reserve(size);
  w.WriteU64(db.NumShapes());
  for (const ShapeRecord& rec : db.records()) EncodeCatalog(rec, &w);
  return w.Take();
}

Result<std::vector<ShapeRecord>> DecodeRecordsSection(
    std::string_view bytes, const FeatureSpaceRegistry& registry,
    const std::string& source) {
  ByteReader r(bytes);
  uint64_t count = 0;
  if (!r.ReadCount(kMinCatalogBytes, &count)) {
    return Status::DataLoss("bad record count in " + source);
  }
  std::vector<ShapeRecord> records;
  for (uint64_t i = 0; i < count; ++i) {
    ShapeRecord rec;
    DESS_RETURN_NOT_OK(DecodeCatalog(&r, registry, source, &rec));
    records.push_back(std::move(rec));
  }
  DESS_RETURN_NOT_OK(ExpectEnd(r, source));
  return records;
}

std::string EncodeMeshesSection(const ShapeDatabase& db) {
  size_t size = 8;
  for (const ShapeRecord& rec : db.records()) size += MeshEntryBytes(rec.mesh);
  ByteWriter w;
  w.Reserve(size);
  w.WriteU64(db.NumShapes());
  for (const ShapeRecord& rec : db.records()) {
    w.WriteI32(rec.id);
    EncodeMesh(rec.mesh, &w);
  }
  return w.Take();
}

Status DecodeMeshesSection(std::string_view bytes, const std::string& source,
                           std::vector<ShapeRecord>* records) {
  ByteReader r(bytes);
  uint64_t count = 0;
  if (!r.ReadCount(kMinMeshEntryBytes, &count) || count != records->size()) {
    return Status::DataLoss("bad mesh count in " + source);
  }
  for (ShapeRecord& rec : *records) {
    int32_t id = 0;
    if (!r.ReadI32(&id) || id != rec.id) {
      return Status::DataLoss("meshes out of step with records in " + source);
    }
    DESS_RETURN_NOT_OK(DecodeMesh(&r, source, &rec.mesh));
  }
  return ExpectEnd(r, source);
}

std::string EncodeRecordPayload(const ShapeRecord& record) {
  ByteWriter w;
  EncodeCatalog(record, &w);
  EncodeMesh(record.mesh, &w);
  return w.Take();
}

Status DecodeRecordPayload(std::string_view bytes,
                           const FeatureSpaceRegistry& registry,
                           const std::string& source, ShapeRecord* record) {
  ByteReader r(bytes);
  DESS_RETURN_NOT_OK(DecodeCatalog(&r, registry, source, record));
  DESS_RETURN_NOT_OK(DecodeMesh(&r, source, &record->mesh));
  return ExpectEnd(r, source);
}

}  // namespace dess
