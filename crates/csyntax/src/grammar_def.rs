//! The C grammar: C99 plus the gcc extensions SuperC supports (§5).
//!
//! Shaped after the classic ANSI C LALR grammar (Roskind/Degener lineage)
//! with the typedef-name terminal supplied by the context plug-in.
//! Annotations follow §5.1: `passthrough` on the precedence tower, `list`
//! on left-recursive repetitions, `action` on the empty scope helpers
//! (`layout` is available but unused here: every token is kept so ASTs
//! unparse losslessly per configuration), and `complete` on the
//! constructs where subparsers may merge — declarations, definitions,
//! statements, expressions, plus members of commonly configured lists
//! (parameters, struct members, initializer members, enumerators).
//!
//! Two classic shift/reduce conflicts are accepted and resolved as shift,
//! both with the correct C semantics: the dangling `else`, and
//! `IDENTIFIER ':'` as a label at statement head.
//!
//! This file is the grammar's single definition. Its only dependency is
//! `superc_grammar`, so the crate's build script compiles it too and
//! bakes the LALR tables into the library at build time, as Bison does
//! offline for the paper's parser.

use superc_grammar::{Grammar, GrammarBuilder, GrammarError};

/// Runs LALR construction over the C grammar.
pub fn build() -> Result<Grammar, GrammarError> {
    let mut g = GrammarBuilder::new("TranslationUnit");

    g.terminals(&[
        "IDENTIFIER",
        "TYPEDEF_NAME",
        "CONSTANT",
        "STRING_LITERAL",
        // Punctuators.
        "[",
        "]",
        "(",
        ")",
        "{",
        "}",
        ".",
        "->",
        "++",
        "--",
        "&",
        "*",
        "+",
        "-",
        "~",
        "!",
        "/",
        "%",
        "<<",
        ">>",
        "<",
        ">",
        "<=",
        ">=",
        "==",
        "!=",
        "^",
        "|",
        "&&",
        "||",
        "?",
        ":",
        ";",
        "...",
        "=",
        "*=",
        "/=",
        "%=",
        "+=",
        "-=",
        "<<=",
        ">>=",
        "&=",
        "^=",
        "|=",
        ",",
        "@",
        // Keywords.
        "auto",
        "break",
        "case",
        "char",
        "const",
        "continue",
        "default",
        "do",
        "double",
        "else",
        "enum",
        "extern",
        "float",
        "for",
        "goto",
        "if",
        "inline",
        "int",
        "long",
        "register",
        "restrict",
        "return",
        "short",
        "signed",
        "sizeof",
        "static",
        "struct",
        "switch",
        "typedef",
        "union",
        "unsigned",
        "void",
        "volatile",
        "while",
        "_Bool",
        "_Complex",
        // gcc extensions.
        "asm",
        "typeof",
        "__attribute__",
        "__extension__",
        "__builtin_va_arg",
        "__builtin_offsetof",
        "alignof",
        "__label__",
    ]);

    // ---- names ---------------------------------------------------------

    // Member/tag/goto-label positions admit typedef names too; reclassify
    // is context-free, so a typedef name used as a member must still parse.
    g.prod("AnyName", &["IDENTIFIER"]).passthrough();
    g.prod("AnyName", &["TYPEDEF_NAME"]).passthrough();

    // Adjacent string literals concatenate.
    g.prod("StringList", &["STRING_LITERAL"]).list();
    g.prod("StringList", &["StringList", "STRING_LITERAL"])
        .list();

    // ---- expressions ----------------------------------------------------

    g.prod("PrimaryExpression", &["IDENTIFIER"]).passthrough();
    g.prod("PrimaryExpression", &["CONSTANT"]).passthrough();
    g.prod("PrimaryExpression", &["StringList"]).passthrough();
    g.prod("PrimaryExpression", &["(", "Expression", ")"]);
    // gcc statement expression.
    g.prod("PrimaryExpression", &["(", "CompoundStatement", ")"]);
    g.prod(
        "PrimaryExpression",
        &[
            "__builtin_va_arg",
            "(",
            "AssignmentExpression",
            ",",
            "TypeName",
            ")",
        ],
    );
    g.prod(
        "PrimaryExpression",
        &[
            "__builtin_offsetof",
            "(",
            "TypeName",
            ",",
            "OffsetofMember",
            ")",
        ],
    );
    g.prod("OffsetofMember", &["AnyName"]).passthrough();
    g.prod("OffsetofMember", &["OffsetofMember", ".", "AnyName"]);
    g.prod(
        "OffsetofMember",
        &["OffsetofMember", "[", "Expression", "]"],
    );

    g.prod("PostfixExpression", &["PrimaryExpression"])
        .passthrough();
    g.prod(
        "PostfixExpression",
        &["PostfixExpression", "[", "Expression", "]"],
    );
    g.prod("PostfixExpression", &["PostfixExpression", "(", ")"]);
    g.prod(
        "PostfixExpression",
        &["PostfixExpression", "(", "ArgumentExpressionList", ")"],
    );
    g.prod("PostfixExpression", &["PostfixExpression", ".", "AnyName"]);
    g.prod("PostfixExpression", &["PostfixExpression", "->", "AnyName"]);
    g.prod("PostfixExpression", &["PostfixExpression", "++"]);
    g.prod("PostfixExpression", &["PostfixExpression", "--"]);
    // C99 compound literals.
    g.prod(
        "PostfixExpression",
        &["(", "TypeName", ")", "{", "InitMembers", "}"],
    );

    g.prod("ArgumentExpressionList", &["AssignmentExpression"])
        .list();
    g.prod(
        "ArgumentExpressionList",
        &["ArgumentExpressionList", ",", "AssignmentExpression"],
    )
    .list();

    g.prod("UnaryExpression", &["PostfixExpression"])
        .passthrough();
    g.prod("UnaryExpression", &["++", "UnaryExpression"]);
    g.prod("UnaryExpression", &["--", "UnaryExpression"]);
    for op in ["&", "*", "+", "-", "~", "!"] {
        g.prod("UnaryExpression", &[op, "CastExpression"]);
    }
    g.prod("UnaryExpression", &["sizeof", "UnaryExpression"]);
    g.prod("UnaryExpression", &["sizeof", "(", "TypeName", ")"]);
    g.prod("UnaryExpression", &["alignof", "UnaryExpression"]);
    g.prod("UnaryExpression", &["alignof", "(", "TypeName", ")"]);
    // gcc: label addresses and __extension__.
    g.prod("UnaryExpression", &["&&", "AnyName"]);
    g.prod("UnaryExpression", &["__extension__", "CastExpression"])
        .passthrough();

    g.prod("CastExpression", &["UnaryExpression"]).passthrough();
    g.prod("CastExpression", &["(", "TypeName", ")", "CastExpression"]);

    let tower: &[(&str, &str, &[&str])] = &[
        (
            "MultiplicativeExpression",
            "CastExpression",
            &["*", "/", "%"],
        ),
        (
            "AdditiveExpression",
            "MultiplicativeExpression",
            &["+", "-"],
        ),
        ("ShiftExpression", "AdditiveExpression", &["<<", ">>"]),
        (
            "RelationalExpression",
            "ShiftExpression",
            &["<", ">", "<=", ">="],
        ),
        ("EqualityExpression", "RelationalExpression", &["==", "!="]),
        ("AndExpression", "EqualityExpression", &["&"]),
        ("ExclusiveOrExpression", "AndExpression", &["^"]),
        ("InclusiveOrExpression", "ExclusiveOrExpression", &["|"]),
        ("LogicalAndExpression", "InclusiveOrExpression", &["&&"]),
        ("LogicalOrExpression", "LogicalAndExpression", &["||"]),
    ];
    for &(nt, lower, ops) in tower {
        g.prod(nt, &[lower]).passthrough();
        for &op in ops {
            g.prod(nt, &[nt, op, lower]);
        }
    }

    g.prod("ConditionalExpression", &["LogicalOrExpression"])
        .passthrough();
    g.prod(
        "ConditionalExpression",
        &[
            "LogicalOrExpression",
            "?",
            "Expression",
            ":",
            "ConditionalExpression",
        ],
    );
    // gcc `a ?: b`.
    g.prod(
        "ConditionalExpression",
        &["LogicalOrExpression", "?", ":", "ConditionalExpression"],
    );

    g.prod("AssignmentExpression", &["ConditionalExpression"])
        .passthrough();
    for op in [
        "=", "*=", "/=", "%=", "+=", "-=", "<<=", ">>=", "&=", "^=", "|=",
    ] {
        g.prod(
            "AssignmentExpression",
            &["UnaryExpression", op, "AssignmentExpression"],
        );
    }

    g.prod("Expression", &["AssignmentExpression"])
        .passthrough();
    g.prod("Expression", &["Expression", ",", "AssignmentExpression"]);

    g.prod("ConstantExpression", &["ConditionalExpression"])
        .passthrough();

    // ---- declarations ---------------------------------------------------

    g.prod("Declaration", &["DeclarationSpecifiers", ";"]);
    g.prod(
        "Declaration",
        &["DeclarationSpecifiers", "InitDeclaratorList", ";"],
    );
    g.prod("Declaration", &["__extension__", "Declaration"])
        .passthrough();

    for spec in [
        "StorageClassSpecifier",
        "TypeSpecifier",
        "TypeQualifier",
        "FunctionSpecifier",
        "AttributeSpecifier",
    ] {
        g.prod("DeclarationSpecifiers", &[spec]).list();
        g.prod("DeclarationSpecifiers", &["DeclarationSpecifiers", spec])
            .list();
    }

    for kw in ["typedef", "extern", "static", "auto", "register"] {
        g.prod("StorageClassSpecifier", &[kw]).passthrough();
    }
    g.prod("FunctionSpecifier", &["inline"]).passthrough();

    for kw in [
        "void", "char", "short", "int", "long", "float", "double", "signed", "unsigned", "_Bool",
        "_Complex",
    ] {
        g.prod("TypeSpecifier", &[kw]).passthrough();
    }
    g.prod("TypeSpecifier", &["StructOrUnionSpecifier"])
        .passthrough();
    g.prod("TypeSpecifier", &["EnumSpecifier"]).passthrough();
    g.prod("TypeSpecifier", &["TYPEDEF_NAME"]).passthrough();
    g.prod("TypeSpecifier", &["TypeofSpecifier"]).passthrough();

    g.prod("TypeofSpecifier", &["typeof", "(", "Expression", ")"]);
    g.prod("TypeofSpecifier", &["typeof", "(", "TypeName", ")"]);

    for kw in ["const", "volatile", "restrict"] {
        g.prod("TypeQualifier", &[kw]).passthrough();
    }

    // gcc attributes: `__attribute__((...))` with loosely structured
    // balanced contents.
    g.prod(
        "AttributeSpecifier",
        &["__attribute__", "(", "(", "AttributeList", ")", ")"],
    );
    g.prod("AttributeList", &["Attribute"]).list();
    g.prod("AttributeList", &["AttributeList", ",", "Attribute"])
        .list();
    g.prod("Attribute", &[]);
    g.prod("Attribute", &["AnyWord"]);
    g.prod("Attribute", &["AnyWord", "(", ")"]);
    g.prod(
        "Attribute",
        &["AnyWord", "(", "ArgumentExpressionList", ")"],
    );
    g.prod("AnyWord", &["AnyName"]).passthrough();
    g.prod("AnyWord", &["const"]).passthrough();

    g.prod("AttributeSpecifiers", &["AttributeSpecifier"])
        .list();
    g.prod(
        "AttributeSpecifiers",
        &["AttributeSpecifiers", "AttributeSpecifier"],
    )
    .list();

    g.prod("InitDeclaratorList", &["InitDeclarator"]).list();
    g.prod(
        "InitDeclaratorList",
        &["InitDeclaratorList", ",", "InitDeclarator"],
    )
    .list();

    g.prod("InitDeclarator", &["Declarator"]);
    g.prod("InitDeclarator", &["Declarator", "=", "Initializer"]);
    g.prod("InitDeclarator", &["Declarator", "DeclSuffix"]);
    g.prod(
        "InitDeclarator",
        &["Declarator", "DeclSuffix", "=", "Initializer"],
    );
    // Post-declarator asm register specs and attributes.
    g.prod("DeclSuffix", &["AsmSpec"]).passthrough();
    g.prod("DeclSuffix", &["AttributeSpecifiers"]).passthrough();
    g.prod("DeclSuffix", &["AsmSpec", "AttributeSpecifiers"]);

    // ---- struct / union / enum ------------------------------------------

    g.prod(
        "StructOrUnionSpecifier",
        &["StructOrUnion", "{", "StructDeclarationList", "}"],
    );
    g.prod(
        "StructOrUnionSpecifier",
        &[
            "StructOrUnion",
            "AnyName",
            "{",
            "StructDeclarationList",
            "}",
        ],
    );
    g.prod("StructOrUnionSpecifier", &["StructOrUnion", "AnyName"]);
    g.prod("StructOrUnion", &["struct"]).passthrough();
    g.prod("StructOrUnion", &["union"]).passthrough();

    // Nullable for the same merge reason as BlockItemList; also covers
    // gcc's empty struct bodies.
    g.prod("StructDeclarationList", &[]).list();
    g.prod(
        "StructDeclarationList",
        &["StructDeclarationList", "StructDeclaration"],
    )
    .list();

    g.prod(
        "StructDeclaration",
        &["SpecifierQualifierList", "StructDeclaratorList", ";"],
    );
    // gcc: anonymous struct/union members and stray semicolons.
    g.prod("StructDeclaration", &["SpecifierQualifierList", ";"]);
    g.prod("StructDeclaration", &[";"]);
    g.prod("StructDeclaration", &["__extension__", "StructDeclaration"])
        .passthrough();

    for spec in ["TypeSpecifier", "TypeQualifier", "AttributeSpecifier"] {
        g.prod("SpecifierQualifierList", &[spec]).list();
        g.prod("SpecifierQualifierList", &["SpecifierQualifierList", spec])
            .list();
    }

    g.prod("StructDeclaratorList", &["StructDeclarator"]).list();
    g.prod(
        "StructDeclaratorList",
        &["StructDeclaratorList", ",", "StructDeclarator"],
    )
    .list();

    g.prod("StructDeclarator", &["Declarator"]);
    g.prod("StructDeclarator", &[":", "ConstantExpression"]);
    g.prod(
        "StructDeclarator",
        &["Declarator", ":", "ConstantExpression"],
    );
    g.prod("StructDeclarator", &["Declarator", "AttributeSpecifiers"]);
    g.prod(
        "StructDeclarator",
        &[
            "Declarator",
            ":",
            "ConstantExpression",
            "AttributeSpecifiers",
        ],
    );

    g.prod("EnumSpecifier", &["enum", "{", "EnumMembers", "}"]);
    g.prod(
        "EnumSpecifier",
        &["enum", "AnyName", "{", "EnumMembers", "}"],
    );
    g.prod("EnumSpecifier", &["enum", "AnyName"]);

    // Same nullable-prefix phrasing as initializer lists: conditionally
    // present enumerators (`#ifdef`-wrapped `NAME,` members) merge.
    g.prod("EnumMembers", &["EnumPrefix"]).passthrough();
    g.prod("EnumMembers", &["EnumPrefix", "Enumerator"]);
    g.prod("EnumPrefix", &[]).list();
    g.prod("EnumPrefix", &["EnumPrefix", "Enumerator", ","])
        .list();
    g.prod("Enumerator", &["AnyName"]);
    g.prod("Enumerator", &["AnyName", "=", "ConstantExpression"]);

    // ---- declarators ------------------------------------------------------

    g.prod("Declarator", &["Pointer", "DirectDeclarator"]);
    g.prod("Declarator", &["DirectDeclarator"]).passthrough();

    g.prod("DirectDeclarator", &["IDENTIFIER"]);
    g.prod("DirectDeclarator", &["(", "Declarator", ")"]);
    g.prod("DirectDeclarator", &["DirectDeclarator", "[", "]"]);
    g.prod(
        "DirectDeclarator",
        &["DirectDeclarator", "[", "AssignmentExpression", "]"],
    );
    g.prod("DirectDeclarator", &["DirectDeclarator", "[", "*", "]"]);
    g.prod(
        "DirectDeclarator",
        &["DirectDeclarator", "(", "ParameterTypeList", ")"],
    );
    g.prod("DirectDeclarator", &["DirectDeclarator", "(", ")"]);
    g.prod(
        "DirectDeclarator",
        &["DirectDeclarator", "(", "IdentifierList", ")"],
    );

    g.prod("Pointer", &["*"]);
    g.prod("Pointer", &["*", "TypeQualifierList"]);
    g.prod("Pointer", &["*", "Pointer"]);
    g.prod("Pointer", &["*", "TypeQualifierList", "Pointer"]);

    g.prod("TypeQualifierList", &["TypeQualifier"]).list();
    g.prod("TypeQualifierList", &["TypeQualifierList", "TypeQualifier"])
        .list();
    g.prod("TypeQualifierList", &["AttributeSpecifier"]).list();
    g.prod(
        "TypeQualifierList",
        &["TypeQualifierList", "AttributeSpecifier"],
    )
    .list();

    g.prod("ParameterTypeList", &["ParameterList"])
        .passthrough();
    g.prod("ParameterTypeList", &["ParameterList", ",", "..."]);

    g.prod("ParameterList", &["ParameterDeclaration"]).list();
    g.prod(
        "ParameterList",
        &["ParameterList", ",", "ParameterDeclaration"],
    )
    .list();

    g.prod(
        "ParameterDeclaration",
        &["DeclarationSpecifiers", "Declarator"],
    );
    g.prod(
        "ParameterDeclaration",
        &["DeclarationSpecifiers", "AbstractDeclarator"],
    );
    g.prod("ParameterDeclaration", &["DeclarationSpecifiers"]);

    g.prod("IdentifierList", &["IDENTIFIER"]).list();
    g.prod("IdentifierList", &["IdentifierList", ",", "IDENTIFIER"])
        .list();

    g.prod("TypeName", &["SpecifierQualifierList"]);
    g.prod(
        "TypeName",
        &["SpecifierQualifierList", "AbstractDeclarator"],
    );

    g.prod("AbstractDeclarator", &["Pointer"]).passthrough();
    g.prod("AbstractDeclarator", &["DirectAbstractDeclarator"])
        .passthrough();
    g.prod(
        "AbstractDeclarator",
        &["Pointer", "DirectAbstractDeclarator"],
    );

    g.prod(
        "DirectAbstractDeclarator",
        &["(", "AbstractDeclarator", ")"],
    );
    g.prod("DirectAbstractDeclarator", &["[", "]"]);
    g.prod(
        "DirectAbstractDeclarator",
        &["[", "AssignmentExpression", "]"],
    );
    g.prod("DirectAbstractDeclarator", &["[", "*", "]"]);
    g.prod(
        "DirectAbstractDeclarator",
        &["DirectAbstractDeclarator", "[", "]"],
    );
    g.prod(
        "DirectAbstractDeclarator",
        &["DirectAbstractDeclarator", "[", "AssignmentExpression", "]"],
    );
    g.prod("DirectAbstractDeclarator", &["(", ")"]);
    g.prod("DirectAbstractDeclarator", &["(", "ParameterTypeList", ")"]);
    g.prod(
        "DirectAbstractDeclarator",
        &["DirectAbstractDeclarator", "(", ")"],
    );
    g.prod(
        "DirectAbstractDeclarator",
        &["DirectAbstractDeclarator", "(", "ParameterTypeList", ")"],
    );

    // ---- initializers -----------------------------------------------------

    g.prod("Initializer", &["AssignmentExpression"])
        .passthrough();
    g.prod("Initializer", &["{", "InitMembers", "}"]);

    // Initializer lists are phrased as a *nullable prefix of
    // comma-terminated members* rather than comma-separated items: after
    // every `member ,` the parse stack returns to `{ InitPrefix`, which is
    // what lets subparsers merge between the conditional members of
    // Figure 6's array (§4.5's "reduce the empty input to the
    // InitializerList nonterminal"). `{ }`, `{ a }`, `{ a, }`, `{ a, b }`
    // are all covered.
    g.prod("InitMembers", &["InitPrefix"]).passthrough();
    g.prod("InitMembers", &["InitPrefix", "InitItem"]);
    g.prod("InitPrefix", &[]).list();
    g.prod("InitPrefix", &["InitPrefix", "InitItem", ","])
        .list();
    g.prod("InitItem", &["Initializer"]);
    g.prod("InitItem", &["Designation", "Initializer"]);
    g.prod("Designation", &["DesignatorList", "="]);
    g.prod("DesignatorList", &["Designator"]).list();
    g.prod("DesignatorList", &["DesignatorList", "Designator"])
        .list();
    g.prod("Designator", &["[", "ConstantExpression", "]"]);
    // gcc array ranges: [a ... b] = x.
    g.prod(
        "Designator",
        &["[", "ConstantExpression", "...", "ConstantExpression", "]"],
    );
    g.prod("Designator", &[".", "AnyName"]);

    // ---- statements ---------------------------------------------------------

    for s in [
        "LabeledStatement",
        "CompoundStatement",
        "ExpressionStatement",
        "SelectionStatement",
        "IterationStatement",
        "JumpStatement",
        "AsmStatement",
    ] {
        g.prod("Statement", &[s]).passthrough();
    }

    g.prod("LabeledStatement", &["IDENTIFIER", ":", "Statement"]);
    g.prod("LabeledStatement", &["TYPEDEF_NAME", ":", "Statement"]);
    g.prod(
        "LabeledStatement",
        &["case", "ConstantExpression", ":", "Statement"],
    );
    // gcc case ranges.
    g.prod(
        "LabeledStatement",
        &[
            "case",
            "ConstantExpression",
            "...",
            "ConstantExpression",
            ":",
            "Statement",
        ],
    );
    g.prod("LabeledStatement", &["default", ":", "Statement"]);

    g.prod(
        "CompoundStatement",
        &["{", "ScopePush", "BlockItemList", "}"],
    );
    // The empty scope helpers of §5.2: reduced right after `{`, so the
    // plug-in can push a symbol-table scope at the right moment.
    g.prod("ScopePush", &[]).action();

    // Nullable list: a subparser skipping a conditional block item
    // reduces the empty list and reaches the same LR state as the item
    // path, enabling the earliest possible merge.
    g.prod("BlockItemList", &[]).list();
    g.prod("BlockItemList", &["BlockItemList", "BlockItem"])
        .list();
    g.prod("BlockItem", &["Declaration"]).passthrough();
    g.prod("BlockItem", &["Statement"]).passthrough();
    // gcc local labels.
    g.prod("BlockItem", &["__label__", "IdentifierList", ";"]);

    g.prod("ExpressionStatement", &[";"]);
    g.prod("ExpressionStatement", &["Expression", ";"]);

    g.prod(
        "SelectionStatement",
        &["if", "(", "Expression", ")", "Statement"],
    );
    g.prod(
        "SelectionStatement",
        &[
            "if",
            "(",
            "Expression",
            ")",
            "Statement",
            "else",
            "Statement",
        ],
    );
    g.prod(
        "SelectionStatement",
        &["switch", "(", "Expression", ")", "Statement"],
    );

    g.prod(
        "IterationStatement",
        &["while", "(", "Expression", ")", "Statement"],
    );
    g.prod(
        "IterationStatement",
        &["do", "Statement", "while", "(", "Expression", ")", ";"],
    );
    g.prod(
        "IterationStatement",
        &[
            "for",
            "(",
            "ExpressionStatement",
            "ExpressionStatement",
            ")",
            "Statement",
        ],
    );
    g.prod(
        "IterationStatement",
        &[
            "for",
            "(",
            "ExpressionStatement",
            "ExpressionStatement",
            "Expression",
            ")",
            "Statement",
        ],
    );
    // C99 for-declarations.
    g.prod(
        "IterationStatement",
        &[
            "for",
            "(",
            "Declaration",
            "ExpressionStatement",
            ")",
            "Statement",
        ],
    );
    g.prod(
        "IterationStatement",
        &[
            "for",
            "(",
            "Declaration",
            "ExpressionStatement",
            "Expression",
            ")",
            "Statement",
        ],
    );

    g.prod("JumpStatement", &["goto", "AnyName", ";"]);
    // gcc computed goto.
    g.prod("JumpStatement", &["goto", "*", "Expression", ";"]);
    g.prod("JumpStatement", &["continue", ";"]);
    g.prod("JumpStatement", &["break", ";"]);
    g.prod("JumpStatement", &["return", ";"]);
    g.prod("JumpStatement", &["return", "Expression", ";"]);

    // ---- inline assembly ----------------------------------------------------

    g.prod("AsmStatement", &["AsmSpec", ";"]);
    g.prod("AsmSpec", &["asm", "(", "AsmArgs", ")"]);
    g.prod("AsmSpec", &["asm", "AsmQualifiers", "(", "AsmArgs", ")"]);
    g.prod("AsmQualifiers", &["volatile"]).list();
    g.prod("AsmQualifiers", &["inline"]).list();
    g.prod("AsmQualifiers", &["goto"]).list();
    g.prod("AsmQualifiers", &["AsmQualifiers", "volatile"])
        .list();
    g.prod("AsmQualifiers", &["AsmQualifiers", "inline"]).list();
    g.prod("AsmQualifiers", &["AsmQualifiers", "goto"]).list();

    g.prod("AsmArgs", &["StringList"]);
    g.prod("AsmArgs", &["AsmArgs", ":", "AsmOperands"]);
    g.prod("AsmArgs", &["AsmArgs", ":"]);
    g.prod("AsmOperands", &["AsmOperand"]).list();
    g.prod("AsmOperands", &["AsmOperands", ",", "AsmOperand"])
        .list();
    g.prod("AsmOperand", &["StringList", "(", "Expression", ")"]);
    g.prod(
        "AsmOperand",
        &["[", "AnyName", "]", "StringList", "(", "Expression", ")"],
    );
    g.prod("AsmOperand", &["StringList"]);
    g.prod("AsmOperand", &["AnyName"]);

    // ---- top level -------------------------------------------------------------

    // Nullable so a subparser skipping a conditional at the head of a
    // file merges with the declaration path immediately after it.
    g.prod("TranslationUnit", &[]).list();
    g.prod(
        "TranslationUnit",
        &["TranslationUnit", "ExternalDeclaration"],
    )
    .list();

    g.prod("ExternalDeclaration", &["FunctionDefinition"])
        .passthrough();
    g.prod("ExternalDeclaration", &["Declaration"])
        .passthrough();
    g.prod("ExternalDeclaration", &["AsmSpec", ";"]);
    g.prod("ExternalDeclaration", &[";"]);

    g.prod(
        "FunctionDefinition",
        &["DeclarationSpecifiers", "Declarator", "CompoundStatement"],
    );
    // K&R definitions (parameter declaration lists between declarator and
    // body) are omitted: they are obsolete in the kernels this targets and
    // their interaction with post-declarator `__attribute__` makes the
    // grammar ambiguous.

    // ---- merge points (complete syntactic units, §5.1) -------------------

    g.complete(&[
        "TranslationUnit",
        "ExternalDeclaration",
        "FunctionDefinition",
        "Declaration",
        "DeclarationSpecifiers",
        "InitDeclarator",
        "InitDeclaratorList",
        "Statement",
        "CompoundStatement",
        "BlockItem",
        "BlockItemList",
        "Expression",
        "AssignmentExpression",
        "ConditionalExpression",
        "ArgumentExpressionList",
        "ParameterDeclaration",
        "ParameterList",
        "StructDeclaration",
        "StructDeclarationList",
        "StructDeclarator",
        "StructDeclaratorList",
        "Enumerator",
        "EnumMembers",
        "EnumPrefix",
        "InitItem",
        "InitMembers",
        "InitPrefix",
        "Initializer",
        "AttributeList",
        "AsmOperand",
        "AsmOperands",
        "IdentifierList",
        "TypeQualifierList",
        "SpecifierQualifierList",
    ]);

    g.build()
}
