// Seeded-violation fixture (NOT compiled). Path mirrors the real query
// driver header so entrypoint-no-check arms on the SearchQuery template.

namespace vaq {

template <typename ScanFn>
Status SearchQuery(const float* query, size_t k, ScanFn&& scan) {
  VAQ_CHECK(k > 0);  // seed: entrypoint-no-check (must return Status)
  VAQ_DCHECK(query != nullptr);  // debug-only check: legal
  scan();
  return Status::OK();
}

}  // namespace vaq
