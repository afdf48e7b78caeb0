# ctest runner for the tier-1 `one_entry_point` gate.
#
# Partition, cosynth and sim each have one public entry point, run().
# A deprecated wrapper next to it would be a second way in, so this
# script fails when a deprecation attribute or a
# -Wdeprecated-declarations suppression appears in the tree.
#
# Inputs:
#   SOURCE_DIR — repository root (scans src, tests, bench, examples)
cmake_minimum_required(VERSION 3.16)

file(GLOB_RECURSE files
    ${SOURCE_DIR}/src/* ${SOURCE_DIR}/tests/*
    ${SOURCE_DIR}/bench/* ${SOURCE_DIR}/examples/*)
set(hits "")
foreach(file IN LISTS files)
  file(STRINGS ${file} lines
      REGEX "\\[\\[deprecated|Wdeprecated-declarations")
  file(RELATIVE_PATH rel ${SOURCE_DIR} ${file})
  foreach(line IN LISTS lines)
    string(STRIP "${line}" line)
    string(APPEND hits "\n  ${rel}: ${line}")
  endforeach()
endforeach()
if(hits)
  message(FATAL_ERROR
      "deprecated entry points or their suppressions found "
      "(call the subsystem's run() instead):${hits}")
endif()
list(LENGTH files count)
message(STATUS "one_entry_point: ${count} files, none deprecated")
