#ifndef DESS_DB_SERIALIZATION_H_
#define DESS_DB_SERIALIZATION_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/db/shape_database.h"
#include "src/features/feature_space.h"

namespace dess {

/// The one encoding of ShapeRecord bytes, written with ByteWriter
/// (src/common/byte_codec.h). A record encodes as two parts:
///
///   catalog  [i32 id][string name][i32 group][u32 n]
///            n x ([u32 registry ordinal][f64 vector])
///   mesh     [u64 vertices] xyz f64 per vertex
///            [u64 triangles] three u32 vertex indices per triangle
///
/// and three layouts splice the parts:
///  - records.bin (snapshot): [u64 count], then each record's catalog;
///  - meshes.bin (snapshot): [u64 count], then [i32 id] and the mesh of
///    each record, in records.bin order;
///  - a write-ahead-log record payload: one catalog, then its mesh.
///
/// Decoders validate against the registry the bytes are read for: the
/// vector count is the registry's size, every ordinal is in range, and
/// every vector has its space's dimension. Counts are checked against the
/// bytes left before anything is allocated for them, every triangle index
/// against the vertex count, and each decoder consumes its input exactly:
/// a short, malformed or over-long input is DataLoss naming `source`.

/// records.bin: the catalog and feature vectors of every record of `db`.
std::string EncodeRecordsSection(const ShapeDatabase& db);
Result<std::vector<ShapeRecord>> DecodeRecordsSection(
    std::string_view bytes, const FeatureSpaceRegistry& registry,
    const std::string& source);

/// meshes.bin: the geometry of every record of `db`.
std::string EncodeMeshesSection(const ShapeDatabase& db);
/// Attaches its mesh to each of `records`, which must be the records the
/// section was written with, in the same order.
Status DecodeMeshesSection(std::string_view bytes, const std::string& source,
                           std::vector<ShapeRecord>* records);

/// A write-ahead-log record payload: one record with its mesh.
std::string EncodeRecordPayload(const ShapeRecord& record);
Status DecodeRecordPayload(std::string_view bytes,
                           const FeatureSpaceRegistry& registry,
                           const std::string& source, ShapeRecord* record);

}  // namespace dess

#endif  // DESS_DB_SERIALIZATION_H_
