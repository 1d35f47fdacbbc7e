# Included by the compare_*.cmake scripts.
#
# report_first_difference(<id> <expected> <actual>) appends the first
# line where two differing texts part to the caller's `failures`.
# Lines are cut with string(FIND), not CMake lists, which mangle '['
# and ';'.
function(report_first_difference id expected actual)
    set(line 1)
    while(TRUE)
        string(FIND "${expected}" "\n" end_e)
        string(FIND "${actual}" "\n" end_a)
        string(SUBSTRING "${expected}" 0 ${end_e} e)
        string(SUBSTRING "${actual}" 0 ${end_a} a)
        if(NOT e STREQUAL a OR (end_e EQUAL -1 AND end_a EQUAL -1))
            break()
        endif()
        math(EXPR end_e "${end_e} + 1")
        math(EXPR end_a "${end_a} + 1")
        string(SUBSTRING "${expected}" ${end_e} -1 expected)
        string(SUBSTRING "${actual}" ${end_a} -1 actual)
        math(EXPR line "${line} + 1")
    endwhile()
    string(APPEND failures "${id}: line ${line} differs\n"
        "  expected: ${e}\n  actual:   ${a}\n")
    set(failures "${failures}" PARENT_SCOPE)
endfunction()
