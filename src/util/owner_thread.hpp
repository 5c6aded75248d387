// One-writer objects: the thread that constructs the object is the only one
// that may write to it.
//
// The simulator runs one event queue on one thread, so its recorders need
// no locks -- provided nothing writes to them from elsewhere.  An object
// that relies on this keeps an OwnerThread and calls check() on every
// write: an always-on assertion whose message names the owner thread.
#pragma once

#include <string>
#include <thread>

#include "util/assert.hpp"

namespace edgesim {

class OwnerThread {
 public:
  OwnerThread() : id_(std::this_thread::get_id()) {}

  /// Aborts unless called on the owner thread; `what` names the object.
  void check(const char* what) const {
    ES_ASSERT_MSG(std::this_thread::get_id() == id_, misuse(what).c_str());
  }

 private:
  /// "<what> is written only by its owner thread <id>; called from thread
  /// <id>" -- the text of a failed check.
  std::string misuse(const char* what) const;

  std::thread::id id_;
};

}  // namespace edgesim
