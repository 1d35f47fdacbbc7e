# Usage: cmake -DCLI=<mparch_cli> -DGOLDEN=<dir> -DOUT=<dir>
#              [-DRECORD=ON] -P compare_study_journals.cmake
#
# Runs one default-trial `mparch_cli study --journal --jobs 1` per
# device model (mxm half on fpga and gpu, mxm single on xeon-phi,
# which has no half) and compares every journal it writes byte for
# byte with its pinned copy GOLDEN/<arch>/<file>.mpj: one trial whose
# outcome moves fails here even when no aggregate does. A differing
# line, a missing pinned file or an extra one fails. RECORD=ON
# rewrites GOLDEN from this run instead.

cmake_minimum_required(VERSION 3.16)
include("${CMAKE_CURRENT_LIST_DIR}/first_difference.cmake")

file(REMOVE_RECURSE "${OUT}")
foreach(study fpga:half gpu:half xeon-phi:single)
    string(REPLACE ":" ";" parts "${study}")
    list(GET parts 0 arch)
    list(GET parts 1 precision)
    execute_process(
        COMMAND "${CLI}" study --arch ${arch} --workload mxm
                --precision ${precision} --jobs 1 --journal "${OUT}"
        RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT status STREQUAL "0")
        message(FATAL_ERROR "study ${arch} exited with '${status}'\n${err}")
    endif()
endforeach()

file(GLOB_RECURSE written RELATIVE "${OUT}" "${OUT}/*.mpj")
if(RECORD)
    file(REMOVE_RECURSE "${GOLDEN}")
    foreach(path IN LISTS written)
        get_filename_component(dir "${path}" DIRECTORY)
        file(COPY "${OUT}/${path}" DESTINATION "${GOLDEN}/${dir}")
    endforeach()
    message(STATUS "recorded ${GOLDEN}")
    return()
endif()

set(failures "")
file(GLOB_RECURSE pinned RELATIVE "${GOLDEN}" "${GOLDEN}/*.mpj")
foreach(path IN LISTS pinned)
    if(NOT path IN_LIST written)
        string(APPEND failures "${path}: pinned, but no longer written\n")
        continue()
    endif()
    file(READ "${GOLDEN}/${path}" expected)
    file(READ "${OUT}/${path}" actual)
    if(NOT expected STREQUAL actual)
        report_first_difference("${path}" "${expected}" "${actual}")
    endif()
endforeach()
foreach(path IN LISTS written)
    if(NOT path IN_LIST pinned)
        string(APPEND failures "${path}: no pinned ${GOLDEN}/${path}\n")
    endif()
endforeach()

if(failures)
    # NOTICE prints verbatim; FATAL_ERROR would re-wrap the lines.
    message(NOTICE "study journals differ from ${GOLDEN}:\n${failures}"
        "If the change is meant to move results, re-record with\n"
        "  cmake -DCLI=${CLI} -DGOLDEN=${GOLDEN} -DOUT=${OUT}"
        " -DRECORD=ON -P ${CMAKE_CURRENT_LIST_FILE}\n"
        "and name the trials that moved in CHANGES.md.")
    message(FATAL_ERROR "pinned study journals differ")
endif()
