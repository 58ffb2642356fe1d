#include "proto/controller.hh"

#include <algorithm>
#include <utility>
#include <vector>

namespace tokensim {

void
BackingStore::encodeWritten(WireWriter &w) const
{
    std::vector<std::pair<Addr, std::uint64_t>> written;
    for (const auto &[a, v] : data_) {
        if (v != initialValue(a))
            written.emplace_back(a, v);
    }
    std::sort(written.begin(), written.end());
    w.varint(written.size());
    for (const auto &[a, v] : written) {
        w.varint(a);
        w.varint(v);
    }
}

void
BackingStore::decodeWritten(WireReader &r, const ProtoContext &ctx,
                            NodeId home)
{
    const std::uint64_t nwritten = r.varint("written block count");
    Addr prev = 0;
    for (std::uint64_t i = 0; i < nwritten; ++i) {
        const Addr a = r.varint("written block address");
        const std::uint64_t v = r.varint("written block value");
        if (ctx.blockAlign(a) != a)
            throw WireError("written block not block-aligned");
        if (ctx.home(a) != home)
            throw WireError("written block homed elsewhere");
        if (i > 0 && a <= prev)
            throw WireError("written blocks not strictly ascending");
        prev = a;
        write(a, v);
    }
}

} // namespace tokensim
