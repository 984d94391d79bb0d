#pragma once

// Global operator new and delete, every form (aligned and nothrow
// included), replaced by versions that count the news. Linked into a test
// binary as its own translation unit (counting_new.cc): were the
// replacements defined beside the tests, GCC would inline the sized delete
// into gtest's registration news and, under -Werror, reject the pairing as
// mismatched.

#include <cstdint>

namespace usw::test {

/// operator new calls the process has made so far, of every form.
std::uint64_t operator_news();

}  // namespace usw::test
