#include "util/owner_thread.hpp"

#include <sstream>

namespace edgesim {

std::string OwnerThread::misuse(const char* what) const {
  std::ostringstream text;
  text << what << " is written only by its owner thread " << id_
       << "; called from thread " << std::this_thread::get_id();
  return text.str();
}

}  // namespace edgesim
