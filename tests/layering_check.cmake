# Layering check, run by ctest as `layering_check`:
#
#   cmake -DSRC_DIR=<repo>/src -P tests/layering_check.cmake
#
# Fails when
#   - a file under src/common/ includes a project header outside common/
#     (common/ is the bottom layer: no obs/, serve/ or graph/ edge);
#   - a file under the paper pipeline (src/{graph,analysis,expansion,wiki,
#     linking}/) includes a serve/ header;
#   - src/ declares a thread_local other than the one request context
#     (common/deadline.cc) and the pool's worker marker
#     (common/thread_pool.cc).

cmake_minimum_required(VERSION 3.16)

if(NOT SRC_DIR OR NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "layering_check: pass -DSRC_DIR=<repo>/src")
endif()

set(violations "")

# Appends to `violations` every project include of `file` (quoted, path
# relative to src/) that `bad_regex` matches and `allow_regex` does not.
function(check_includes file bad_regex allow_regex)
  file(STRINGS "${file}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
  foreach(line IN LISTS lines)
    string(REGEX REPLACE "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\".*$" "\\1"
           header "${line}")
    if(header MATCHES "${bad_regex}" AND NOT header MATCHES "${allow_regex}")
      file(RELATIVE_PATH rel "${SRC_DIR}" "${file}")
      list(APPEND violations "${rel} includes \"${header}\"")
    endif()
  endforeach()
  set(violations "${violations}" PARENT_SCOPE)
endfunction()

file(GLOB common_files "${SRC_DIR}/common/*.h" "${SRC_DIR}/common/*.cc")
foreach(file IN LISTS common_files)
  check_includes("${file}" "/" "^common/")
endforeach()

foreach(layer graph analysis expansion wiki linking)
  file(GLOB layer_files "${SRC_DIR}/${layer}/*.h" "${SRC_DIR}/${layer}/*.cc")
  foreach(file IN LISTS layer_files)
    check_includes("${file}" "^serve/" "^$")
  endforeach()
endforeach()

set(request_contexts 0)
file(GLOB_RECURSE all_files "${SRC_DIR}/*.h" "${SRC_DIR}/*.cc")
foreach(file IN LISTS all_files)
  file(STRINGS "${file}" decls REGEX "(^|[^a-z_])thread_local[ \t]")
  file(RELATIVE_PATH rel "${SRC_DIR}" "${file}")
  foreach(decl IN LISTS decls)
    if(decl MATCHES "^[ \t]*//")
      continue()  # a comment that names the keyword
    endif()
    if(rel STREQUAL "common/thread_pool.cc" AND decl MATCHES "t_current_pool")
      continue()
    endif()
    if(rel STREQUAL "common/deadline.cc" AND decl MATCHES "RequestContext")
      math(EXPR request_contexts "${request_contexts} + 1")
      continue()
    endif()
    string(REPLACE ";" "" decl "${decl}")  # not a list separator here
    string(STRIP "${decl}" decl)
    list(APPEND violations "${rel} declares a second thread-local: ${decl}")
  endforeach()
endforeach()
if(NOT request_contexts EQUAL 1)
  list(APPEND violations
       "common/deadline.cc declares ${request_contexts} RequestContext thread-locals, expected 1")
endif()

if(violations)
  list(JOIN violations "\n  " report)
  message(FATAL_ERROR "layering_check failed:\n  ${report}")
endif()
message(STATUS "layering_check: OK")
