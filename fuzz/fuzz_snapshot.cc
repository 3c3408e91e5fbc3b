// Fuzz harness: the snapshot loader (service/snapshot.h).
//
// ParseSnapshot treats the file as untrusted input: arbitrary bytes must be
// rejected gracefully (no crash, no over-read, no unbounded allocation).
// Raw inputs mostly die at the checksum, so for depth the harness also
// replays every input with a *fixed-up* header — correct magic, version,
// payload size, and recomputed checksum — forcing the section parsers to
// face the mutated payload. Anything that parses must parse identically
// again (determinism).

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "service/snapshot.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace fastofd;

  // Pass 1: raw bytes (header checks, checksum, truncation).
  (void)ParseSnapshot(data, size);

  // Pass 2: the same bytes as a payload under a valid header.
  std::vector<uint8_t> image(32 + size);
  std::memcpy(image.data(), kSnapshotMagic, 8);
  for (int i = 0; i < 4; ++i) {
    image[8 + static_cast<size_t>(i)] =
        static_cast<uint8_t>((kSnapshotVersion >> (8 * i)) & 0xff);
    image[12 + static_cast<size_t>(i)] = 0;
  }
  const uint64_t payload_size = size;
  const uint64_t checksum = Hash64(data, size);
  for (int i = 0; i < 8; ++i) {
    image[16 + static_cast<size_t>(i)] =
        static_cast<uint8_t>((payload_size >> (8 * i)) & 0xff);
    image[24 + static_cast<size_t>(i)] =
        static_cast<uint8_t>((checksum >> (8 * i)) & 0xff);
  }
  std::memcpy(image.data() + 32, data, size);

  auto first = ParseSnapshot(image.data(), image.size());
  auto second = ParseSnapshot(image.data(), image.size());
  FASTOFD_CHECK(first.ok() == second.ok());
  if (first.ok()) {
    // Accepted payloads must be structurally identical across parses.
    FASTOFD_CHECK(first.value().schema_names == second.value().schema_names);
    FASTOFD_CHECK(first.value().dict_strings == second.value().dict_strings);
    FASTOFD_CHECK(first.value().columns == second.value().columns);
    FASTOFD_CHECK(first.value().ontology_text == second.value().ontology_text);
    FASTOFD_CHECK(first.value().value_senses == second.value().value_senses);
    FASTOFD_CHECK(first.value().sense_values == second.value().sense_values);
    FASTOFD_CHECK(first.value().sigma_text == second.value().sigma_text);
  }
  return 0;
}
