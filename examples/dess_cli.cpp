// dess_cli — command-line front end for 3DESS, the kind of tool a
// downstream user would drive the library with.
//
// Every <db_dir> is a snapshot directory (Dess3System::SaveSnapshot):
// records, meshes, calibrated spaces and browsing hierarchies, reopened
// without re-extracting or recalibrating.
//
//   dess_cli build <db_dir> [--groups N] [--noise N] [--seed S]
//       Generate the synthetic engineering dataset, extract features, and
//       persist the database.
//   dess_cli ingest <db_dir> <mesh_file> [group]
//       Add an external CAD file (.off/.obj/.stl) to an existing database.
//   dess_cli info <db_dir>
//       Print catalog statistics.
//   dess_cli query <db_dir> <mesh_file> [k] [feature]
//       Query by example with an external mesh.
//   dess_cli multistep <db_dir> <mesh_file> [k]
//       Multi-step query (invariants -> geometric re-rank).
//   dess_cli browse <db_dir> [feature]
//       Print the drill-down browsing hierarchy.
//   dess_cli render <db_dir> <shape_id> <output_prefix>
//       Generate turntable views + triangulated OBJ for one shape.
//   dess_cli export-dataset <dir> [--groups N] [--noise N] [--seed S]
//       Generate the synthetic dataset as OFF meshes + manifest.csv.
//   dess_cli build-from-dir <db_dir> <dir>
//       Build a database from a directory of meshes + manifest.csv
//       (the format export-dataset writes; use it to index your own
//       CAD collections).
//   dess_cli effectiveness <db_dir>
//       Run the 26-query effectiveness experiment on any database with
//       ground-truth groups (the Figure 15/16 protocol).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/core/system.h"
#include "src/eval/experiments.h"
#include "src/geom/mesh_io.h"
#include "src/modelgen/dataset.h"
#include "src/modelgen/dataset_io.h"
#include "src/render/view_generation.h"

namespace {

using namespace dess;

SystemOptions CliSystemOptions() {
  SystemOptions opt;
  opt.extraction.voxelization.resolution = 32;
  return opt;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

Result<std::unique_ptr<Dess3System>> OpenDb(const char* dir) {
  return Dess3System::OpenFromSnapshot(dir, {}, CliSystemOptions());
}

Status SaveDb(const Dess3System& system, const char* dir) {
  return system.SaveSnapshot(dir, {.overwrite = true});
}

Result<FeatureKind> ParseFeature(const std::string& name) {
  for (FeatureKind kind : AllFeatureKinds()) {
    if (FeatureKindName(kind) == name) return kind;
  }
  return Status::InvalidArgument(
      "unknown feature '" + name +
      "' (use moment_invariants | geometric_params | principal_moments | "
      "eigenvalues)");
}

int CmdBuild(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: dess_cli build <db_dir> [--groups N] "
                         "[--noise N] [--seed S]\n");
    return 2;
  }
  DatasetOptions ds_opt;
  ds_opt.mesh_resolution = 40;
  for (int i = 3; i + 1 < argc; i += 2) {
    if (!std::strcmp(argv[i], "--groups")) {
      ds_opt.num_groups = std::atoi(argv[i + 1]);
    } else if (!std::strcmp(argv[i], "--noise")) {
      ds_opt.num_noise = std::atoi(argv[i + 1]);
    } else if (!std::strcmp(argv[i], "--seed")) {
      ds_opt.seed = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  auto dataset = BuildStandardDataset(ds_opt);
  if (!dataset.ok()) return Fail(dataset.status());
  Dess3System system(CliSystemOptions());
  if (Status st = system.IngestDataset(*dataset); !st.ok()) return Fail(st);
  if (auto epoch = system.Commit(); !epoch.ok()) return Fail(epoch.status());
  if (Status st = SaveDb(system, argv[2]); !st.ok()) return Fail(st);
  std::printf("built %zu shapes (%d groups) -> %s\n",
              system.db().NumShapes(), system.db().NumGroups(), argv[2]);
  return 0;
}

int CmdIngest(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: dess_cli ingest <db_dir> <mesh_file> [group]\n");
    return 2;
  }
  auto system = OpenDb(argv[2]);
  if (!system.ok()) return Fail(system.status());
  auto mesh = ReadMesh(argv[3]);
  if (!mesh.ok()) return Fail(mesh.status());
  const int group = argc > 4 ? std::atoi(argv[4]) : kUngrouped;
  auto id = (*system)->IngestMesh(*mesh, argv[3], group);
  if (!id.ok()) return Fail(id.status());
  if (auto epoch = (*system)->Commit(); !epoch.ok()) {
    return Fail(epoch.status());
  }
  if (Status st = SaveDb(**system, argv[2]); !st.ok()) return Fail(st);
  std::printf("ingested '%s' as shape %d (group %d)\n", argv[3], *id, group);
  return 0;
}

int CmdInfo(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: dess_cli info <db_dir>\n");
    return 2;
  }
  auto system = OpenDb(argv[2]);
  if (!system.ok()) return Fail(system.status());
  const ShapeDatabase& db = (*system)->db();
  std::printf("database: %s\n", argv[2]);
  std::printf("  shapes: %zu, groups: %d\n", db.NumShapes(), db.NumGroups());
  size_t verts = 0, tris = 0;
  int noise = 0;
  for (const ShapeRecord& rec : db.records()) {
    verts += rec.mesh.NumVertices();
    tris += rec.mesh.NumTriangles();
    if (rec.group == kUngrouped) ++noise;
  }
  std::printf("  noise shapes: %d\n", noise);
  std::printf("  total geometry: %zu vertices, %zu triangles\n", verts, tris);
  for (FeatureKind kind : AllFeatureKinds()) {
    std::printf("  feature '%s': dim %d\n", FeatureKindName(kind).c_str(),
                FeatureDim(kind));
  }
  return 0;
}

int CmdQuery(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: dess_cli query <db_dir> <mesh_file> [k] "
                 "[feature]\n");
    return 2;
  }
  auto system = OpenDb(argv[2]);
  if (!system.ok()) return Fail(system.status());
  auto mesh = ReadMesh(argv[3]);
  if (!mesh.ok()) return Fail(mesh.status());
  const size_t k = argc > 4 ? std::atoi(argv[4]) : 5;
  FeatureKind kind = FeatureKind::kPrincipalMoments;
  if (argc > 5) {
    auto parsed = ParseFeature(argv[5]);
    if (!parsed.ok()) return Fail(parsed.status());
    kind = *parsed;
  }
  auto response =
      (*system)->QueryByMesh(*mesh, QueryRequest::TopK(kind, k));
  if (!response.ok()) return Fail(response.status());
  std::printf("top-%zu by %s:\n", k, FeatureKindName(kind).c_str());
  for (const SearchResult& r : response->results) {
    auto rec = (*system)->db().Get(r.id);
    std::printf("  #%-4d %-28s sim=%.3f\n", r.id,
                rec.ok() ? (*rec)->name.c_str() : "?", r.similarity);
  }
  return 0;
}

int CmdMultiStep(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: dess_cli multistep <db_dir> <mesh_file> [k]\n");
    return 2;
  }
  auto system = OpenDb(argv[2]);
  if (!system.ok()) return Fail(system.status());
  auto mesh = ReadMesh(argv[3]);
  if (!mesh.ok()) return Fail(mesh.status());
  const int k = argc > 4 ? std::atoi(argv[4]) : 10;
  auto response = (*system)->QueryByMesh(
      *mesh, QueryRequest::MultiStep(MultiStepPlan::Standard(30, k)));
  if (!response.ok()) return Fail(response.status());
  std::printf("multi-step top-%d (invariants -> geometric re-rank):\n", k);
  for (const SearchResult& r : response->results) {
    auto rec = (*system)->db().Get(r.id);
    std::printf("  #%-4d %-28s sim=%.3f\n", r.id,
                rec.ok() ? (*rec)->name.c_str() : "?", r.similarity);
  }
  return 0;
}

void PrintHierarchy(const ShapeDatabase& db, const HierarchyNode* node,
                    int depth) {
  std::printf("%*s+ %zu shapes", depth * 2, "", node->members.size());
  if (node->IsLeaf()) {
    std::printf(":");
    for (size_t i = 0; i < node->members.size() && i < 5; ++i) {
      auto rec = db.Get(node->members[i]);
      if (rec.ok()) std::printf(" %s", (*rec)->name.c_str());
    }
    if (node->members.size() > 5) std::printf(" ...");
  }
  std::printf("\n");
  for (const auto& child : node->children) {
    PrintHierarchy(db, child.get(), depth + 1);
  }
}

int CmdBrowse(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: dess_cli browse <db_dir> [feature]\n");
    return 2;
  }
  auto system = OpenDb(argv[2]);
  if (!system.ok()) return Fail(system.status());
  FeatureKind kind = FeatureKind::kPrincipalMoments;
  if (argc > 3) {
    auto parsed = ParseFeature(argv[3]);
    if (!parsed.ok()) return Fail(parsed.status());
    kind = *parsed;
  }
  auto root = (*system)->Hierarchy(kind);
  if (!root.ok()) return Fail(root.status());
  std::printf("browsing hierarchy by %s:\n", FeatureKindName(kind).c_str());
  PrintHierarchy((*system)->db(), *root, 0);
  return 0;
}

int CmdRender(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: dess_cli render <db_dir> <shape_id> <prefix>\n");
    return 2;
  }
  auto system = OpenDb(argv[2]);
  if (!system.ok()) return Fail(system.status());
  auto rec = (*system)->db().Get(std::atoi(argv[3]));
  if (!rec.ok()) return Fail(rec.status());
  std::vector<std::string> paths;
  if (Status st = GenerateViews((*rec)->mesh, argv[4], {}, &paths);
      !st.ok()) {
    return Fail(st);
  }
  for (const auto& p : paths) std::printf("wrote %s\n", p.c_str());
  return 0;
}

int CmdExportDataset(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: dess_cli export-dataset <dir> [--groups N] "
                 "[--noise N] [--seed S]\n");
    return 2;
  }
  DatasetOptions ds_opt;
  ds_opt.mesh_resolution = 40;
  for (int i = 3; i + 1 < argc; i += 2) {
    if (!std::strcmp(argv[i], "--groups")) {
      ds_opt.num_groups = std::atoi(argv[i + 1]);
    } else if (!std::strcmp(argv[i], "--noise")) {
      ds_opt.num_noise = std::atoi(argv[i + 1]);
    } else if (!std::strcmp(argv[i], "--seed")) {
      ds_opt.seed = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  auto dataset = BuildStandardDataset(ds_opt);
  if (!dataset.ok()) return Fail(dataset.status());
  if (Status st = SaveDatasetAsMeshes(*dataset, argv[2]); !st.ok()) {
    return Fail(st);
  }
  std::printf("exported %zu shapes to %s (manifest.csv + OFF meshes)\n",
              dataset->shapes.size(), argv[2]);
  return 0;
}

int CmdBuildFromDir(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: dess_cli build-from-dir <db_dir> <dir>\n");
    return 2;
  }
  auto dataset = LoadDatasetFromDirectory(argv[3]);
  if (!dataset.ok()) return Fail(dataset.status());
  Dess3System system(CliSystemOptions());
  if (Status st =
          system.IngestDataset(*dataset, IngestOptions{.num_threads = 0});
      !st.ok()) {
    return Fail(st);
  }
  if (auto epoch = system.Commit(); !epoch.ok()) return Fail(epoch.status());
  if (Status st = SaveDb(system, argv[2]); !st.ok()) return Fail(st);
  std::printf("indexed %zu shapes from %s -> %s\n",
              system.db().NumShapes(), argv[3], argv[2]);
  return 0;
}

int CmdEffectiveness(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: dess_cli effectiveness <db_dir>\n");
    return 2;
  }
  auto system = OpenDb(argv[2]);
  if (!system.ok()) return Fail(system.status());
  auto snapshot = (*system)->CurrentSnapshot();
  if (!snapshot.ok()) return Fail(snapshot.status());
  auto rows = RunAverageEffectiveness((*snapshot)->engine());
  if (!rows.ok()) return Fail(rows.status());
  std::printf("%-34s %-14s %-12s %-12s\n", "method", "recall@|A|",
              "recall@10", "precision@10");
  for (const EffectivenessRow& row : *rows) {
    std::printf("%-34s %-14.3f %-12.3f %-12.3f\n", row.method.c_str(),
                row.avg_recall_group_size, row.avg_recall_10,
                row.avg_precision_10);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: dess_cli <build|ingest|info|query|multistep|browse|"
                 "render|export-dataset|build-from-dir|effectiveness> ...\n"
                 "  (<db_dir> arguments are snapshot directories)\n");
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "build") return CmdBuild(argc, argv);
  if (cmd == "ingest") return CmdIngest(argc, argv);
  if (cmd == "info") return CmdInfo(argc, argv);
  if (cmd == "query") return CmdQuery(argc, argv);
  if (cmd == "multistep") return CmdMultiStep(argc, argv);
  if (cmd == "browse") return CmdBrowse(argc, argv);
  if (cmd == "render") return CmdRender(argc, argv);
  if (cmd == "export-dataset") return CmdExportDataset(argc, argv);
  if (cmd == "build-from-dir") return CmdBuildFromDir(argc, argv);
  if (cmd == "effectiveness") return CmdEffectiveness(argc, argv);
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 2;
}
